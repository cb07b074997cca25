package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postTenantRun submits a spec with an explicit X-WMM-Tenant header and
// returns the raw response (callers close the body / decode it).
func postTenantRun(t *testing.T, url, tenant, spec string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/api/v1/runs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func submitTenantRun(t *testing.T, url, tenant, spec string) string {
	t.Helper()
	resp := postTenantRun(t, url, tenant, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant %q submit = %d, want 202", tenant, resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		t.Fatalf("tenant submit decode: %v (id %q)", err, out.ID)
	}
	return out.ID
}

// TestFairShareDequeueOrder drives the weighted round-robin dequeue
// directly: with one noisy tenant holding a deep queue and one quiet
// tenant holding two jobs, the quiet tenant's work surfaces within the
// first rotations instead of waiting behind the flood — and a weight-2
// tenant gets two dequeues per round.
func TestFairShareDequeueOrder(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	d := NewDispatcher(eng, DispatchOptions{
		LocalSlots:    -1, // nothing drains: the queue order is the test
		TenantWeights: map[string]int{"heavy": 2},
	}, 1)
	defer d.Close()

	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			d.push(&dispatchJob{
				runID:  fmt.Sprintf("%s-run", tenant),
				tenant: tenant,
				cell:   Cell{Name: fmt.Sprintf("%s-%d", tenant, i)},
				ctx:    context.Background(),
			})
		}
	}
	enqueue("noisy", 10)
	enqueue("quiet", 2)
	enqueue("heavy", 6)

	var order []string
	d.mu.Lock()
	for j := d.popLocked(); j != nil; j = d.popLocked() {
		order = append(order, j.tenant)
	}
	d.mu.Unlock()
	if len(order) != 18 {
		t.Fatalf("drained %d jobs, want 18", len(order))
	}
	// Both quiet jobs must surface within the first two rotations (a
	// rotation is at most 1 noisy + 1 quiet + 2 heavy dequeues), not
	// after the noisy tenant's backlog.
	quietDone := 0
	for _, tenant := range order[:8] {
		if tenant == "quiet" {
			quietDone++
		}
	}
	if quietDone != 2 {
		t.Fatalf("quiet jobs in first 8 dequeues = %d, want 2 (order %v)", quietDone, order)
	}
	// Weight 2 earns heavy twice the dequeues of noisy while all three
	// tenants still have work: the first two full rounds are 8 dequeues
	// (1 noisy + 1 quiet + 2 heavy each).
	heavyEarly, noisyEarly := 0, 0
	for _, tenant := range order[:8] {
		switch tenant {
		case "heavy":
			heavyEarly++
		case "noisy":
			noisyEarly++
		}
	}
	if heavyEarly != 4 || noisyEarly != 2 {
		t.Errorf("first 2 rounds: heavy %d / noisy %d dequeues, want 4 / 2 (order %v)",
			heavyEarly, noisyEarly, order)
	}
}

// TestFairShareNoStarvation is the end-to-end guarantee: a tenant
// saturating the dispatch queue cannot starve another tenant's single
// queued run.  One local slot serialises execution; tenant "noisy"
// floods six runs, tenant "quiet" submits one, and quiet must finish
// while noisy still has runs outstanding.
func TestFairShareNoStarvation(t *testing.T) {
	ts, _, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 1,
		Dispatch: &DispatchOptions{LocalSlots: 1},
	})

	var noisy []string
	for i := 0; i < 6; i++ {
		noisy = append(noisy, submitTenantRun(t, ts.URL, "noisy",
			fmt.Sprintf(`{"experiments": ["fig4"], "short": true, "samples": 1, "seed": %d}`, i+10)))
	}
	quiet := submitTenantRun(t, ts.URL, "quiet",
		`{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 99}`)

	st := waitState(t, ts, quiet, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("quiet run ended %s (err %q)", st.State, st.Error)
	}
	if st.Spec.Tenant != "quiet" {
		t.Errorf("quiet run spec.tenant = %q, want %q", st.Spec.Tenant, "quiet")
	}
	// Snapshot the noisy backlog immediately: with fair-share the quiet
	// run jumped the queue, so most of the flood must still be pending.
	cl := testClient(ts)
	outstanding := 0
	for _, id := range noisy {
		rs, err := cl.Run(context.Background(), id, false)
		if err != nil {
			t.Fatal(err)
		}
		if rs.State == StateRunning {
			outstanding++
		}
	}
	if outstanding < 2 {
		t.Fatalf("only %d noisy runs still outstanding when quiet finished; fair-share did not protect the quiet tenant", outstanding)
	}
	for _, id := range noisy {
		waitState(t, ts, id, 5*time.Minute)
	}
}

// TestTenantQueueQuota verifies the per-tenant admission bound: once a
// tenant's admitted jobs reach TenantMaxQueued, its next submission is
// refused with the 429 saturated envelope + Retry-After while other
// tenants keep submitting freely.
func TestTenantQueueQuota(t *testing.T) {
	ts, _, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 1,
		Dispatch: &DispatchOptions{LocalSlots: 1, TenantMaxQueued: 1, RetryAfter: time.Second},
	})

	// txt1 at full size pins the tenant's single quota slot for minutes.
	id := submitTenantRun(t, ts.URL, "greedy", `{"experiments": ["txt1"], "seed": 3}`)

	resp := postTenantRun(t, ts.URL, "greedy", `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		resp.Body.Close()
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("tenant-quota 429 missing Retry-After header")
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Error.Code != ErrCodeSaturated {
		t.Errorf("tenant-quota envelope code = %q, want %q", env.Error.Code, ErrCodeSaturated)
	}
	if !strings.Contains(env.Error.Message, "greedy") {
		t.Errorf("tenant-quota message does not name the tenant: %q", env.Error.Message)
	}

	// The quota is per tenant, not global: another tenant sails through.
	other := submitTenantRun(t, ts.URL, "modest", `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 4}`)

	cl := testClient(ts)
	if _, err := cl.CancelRun(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, id, time.Minute)
	waitState(t, ts, other, 2*time.Minute)
}

// TestTenantRunningQuota verifies the server-level bound on concurrently
// executing runs per tenant, independent of queue depth.
func TestTenantRunningQuota(t *testing.T) {
	ts, _, _ := newTestServerOpts(t, ServerOptions{
		Parallel:         1,
		TenantMaxRunning: 1,
		Dispatch:         &DispatchOptions{LocalSlots: 1},
	})

	id := submitTenantRun(t, ts.URL, "capped", `{"experiments": ["txt1"], "seed": 3}`)
	resp := postTenantRun(t, ts.URL, "capped", `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		resp.Body.Close()
		t.Fatalf("second running submit = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// A different tenant is not affected by capped's quota.
	other := submitTenantRun(t, ts.URL, "free", `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 5}`)

	cl := testClient(ts)
	if _, err := cl.CancelRun(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, id, time.Minute)
	waitState(t, ts, other, 2*time.Minute)

	// With the slot released the capped tenant submits again.
	again := submitTenantRun(t, ts.URL, "capped", `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 6}`)
	waitState(t, ts, again, 2*time.Minute)
}

// TestTenantResolution pins the precedence and validation rules: the
// X-WMM-Tenant header beats the spec field, the spec field beats the
// default, and malformed names are 400s, not silent fallbacks.
func TestTenantResolution(t *testing.T) {
	ts, _, _ := newTestServerOpts(t, ServerOptions{Parallel: 1, Dispatch: &DispatchOptions{LocalSlots: 1}})

	// Header wins over the spec field.
	id := submitTenantRun(t, ts.URL, "header-team",
		`{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3, "tenant": "spec-team"}`)
	if st := waitState(t, ts, id, 2*time.Minute); st.Spec.Tenant != "header-team" {
		t.Errorf("header precedence: spec.tenant = %q, want %q", st.Spec.Tenant, "header-team")
	}

	// Spec field alone is honoured.
	id2 := submitTenantRun(t, ts.URL, "",
		`{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 4, "tenant": "spec-team"}`)
	if st := waitState(t, ts, id2, 2*time.Minute); st.Spec.Tenant != "spec-team" {
		t.Errorf("spec tenant: got %q, want %q", st.Spec.Tenant, "spec-team")
	}

	// Neither set: the default tenant is recorded explicitly.
	id3 := submitTenantRun(t, ts.URL, "", `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 5}`)
	if st := waitState(t, ts, id3, 2*time.Minute); st.Spec.Tenant != DefaultTenant {
		t.Errorf("default tenant: got %q, want %q", st.Spec.Tenant, DefaultTenant)
	}

	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("x", 65)} {
		resp := postTenantRun(t, ts.URL, bad, `{"experiments": ["fig4"], "short": true, "samples": 1}`)
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusBadRequest {
			t.Errorf("tenant %q: submit = %d, want 400", bad, code)
		}
	}
}

// TestLitmusTenantQuota verifies campaigns share the tenant admission
// budget with experiment runs.
func TestLitmusTenantQuota(t *testing.T) {
	ts, _, _ := newTestServerOpts(t, ServerOptions{
		Parallel: 1,
		Dispatch: &DispatchOptions{LocalSlots: 1, TenantMaxQueued: 2},
	})

	// One run holding a quota slot...
	id := submitTenantRun(t, ts.URL, "lab", `{"experiments": ["txt1"], "seed": 3}`)

	// ...then a campaign whose shards exceed the remaining tenant budget.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/litmus",
		strings.NewReader(`{"arch": "armv8", "count": 6, "shard_size": 2, "trials": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "lab")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	code := resp.StatusCode
	resp.Body.Close()
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota litmus submit = %d, want 429", code)
	}

	cl := testClient(ts)
	if _, err := cl.CancelRun(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, id, time.Minute)
}

// TestReadyzRole pins the satellite contract: an embedded (non-HA)
// server always reports itself the leader on /readyz, so operators can
// tell a standby 503 from a broken one.
func TestReadyzRole(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]any
	resp := getJSON(t, ts.URL+"/readyz", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	if out["role"] != "leader" {
		t.Errorf("readyz role = %v, want %q", out["role"], "leader")
	}
	if out["ready"] != true {
		t.Errorf("readyz ready = %v, want true", out["ready"])
	}
}
