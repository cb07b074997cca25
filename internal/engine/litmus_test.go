package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/wmm/client"
)

// litmusSpec is the campaign used across the API tests: small enough
// to finish in seconds, multi-shard so ordering and assembly matter.
var litmusSpecJSON = client.LitmusSpec{
	Arch:      "armv8",
	GenSeed:   9,
	Count:     12,
	Trials:    4,
	Seed:      3,
	ShardSize: 5, // 12 tests -> shards [0,5) [5,10) [10,12)
	Parallel:  2,
}

func submitLitmus(t *testing.T, ts *httptest.Server, spec client.LitmusSpec) client.Submitted {
	t.Helper()
	sub, err := testClient(ts).SubmitLitmus(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit litmus: %v", err)
	}
	return sub
}

func waitLitmus(t *testing.T, ts *httptest.Server, id string) client.LitmusStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := testClient(ts).WaitLitmus(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait litmus %s: %v", id, err)
	}
	return st
}

// TestLitmusAPILocal exercises the campaign lifecycle on a server with
// the default local slots: submit, wait, status accounting, canonical
// JSON, per-shard Output shape, and removal.
func TestLitmusAPILocal(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := testClient(ts)

	sub := submitLitmus(t, ts, litmusSpecJSON)
	if sub.Total != 3 {
		t.Fatalf("total = %d shards, want 3", sub.Total)
	}
	st := waitLitmus(t, ts, sub.ID)
	if st.State != client.StateDone {
		t.Fatalf("campaign ended %s (err %q)", st.State, st.Error)
	}
	if st.Completed != 3 || st.Tests != 12 || st.Trials != 48 {
		t.Errorf("completed/tests/trials = %d/%d/%d, want 3/12/48", st.Completed, st.Tests, st.Trials)
	}
	if len(st.Results) != 3 {
		t.Fatalf("results = %d shards, want 3", len(st.Results))
	}
	wantNames := []string{"shard-00000-00005", "shard-00005-00010", "shard-00010-00012"}
	for i, res := range st.Results {
		if res.Experiment != wantNames[i] {
			t.Errorf("shard %d named %q, want %q", i, res.Experiment, wantNames[i])
		}
		if res.Status != StatusOK {
			t.Errorf("shard %d status %q (err %q)", i, res.Status, res.Err)
		}
		var rows []struct {
			Name    string `json:"name"`
			Trials  int    `json:"trials"`
			Hits    int    `json:"hits"`
			Relaxed int    `json:"relaxed"`
		}
		if err := json.Unmarshal([]byte(res.Output), &rows); err != nil {
			t.Fatalf("shard %d output is not an outcome array: %v", i, err)
		}
		for _, row := range rows {
			if !strings.HasPrefix(row.Name, "gen:") || row.Trials != 4 {
				t.Errorf("shard %d row %+v: want gen:* with 4 trials", i, row)
			}
		}
	}

	// Canonical JSON is stable across fetches.
	a, err := cl.CanonicalLitmus(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.CanonicalLitmus(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("canonical litmus JSON differs between fetches")
	}

	// Listing carries the campaign; removal makes it unknown.
	var listing struct {
		Items []client.LitmusStatus `json:"items"`
	}
	if err := cl.GetJSON(context.Background(), "/api/v1/litmus", &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Items) != 1 || listing.Items[0].ID != sub.ID {
		t.Errorf("listing = %+v, want the one campaign", listing.Items)
	}
	if _, err := cl.CancelLitmus(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Litmus(context.Background(), sub.ID, false); !client.IsNotFound(err) {
		t.Errorf("status after delete: %v, want 404", err)
	}
}

// TestLitmusDispatchIdentity verifies the campaign analogue of the
// dispatcher invariant: a campaign sharded through the queue and local
// slots yields canonical JSON byte-identical to running the spec's
// shards in order with RunLitmusShard.
func TestLitmusDispatchIdentity(t *testing.T) {
	spec := LitmusSpec{Arch: litmusSpecJSON.Arch, GenSeed: litmusSpecJSON.GenSeed, Count: litmusSpecJSON.Count,
		Trials: litmusSpecJSON.Trials, Seed: litmusSpecJSON.Seed, ShardSize: litmusSpecJSON.ShardSize}
	var shards []*Result
	for _, sh := range spec.withDefaults().shards() {
		res, err := RunLitmusShard(context.Background(), sh)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, res)
	}
	want, err := CanonicalRunJSON(shards)
	if err != nil {
		t.Fatal(err)
	}

	tsDisp, _ := newDispatchServer(t, DispatchOptions{})
	subDisp := submitLitmus(t, tsDisp, litmusSpecJSON)
	if st := waitLitmus(t, tsDisp, subDisp.ID); st.State != client.StateDone {
		t.Fatalf("dispatched campaign ended %s (err %q)", st.State, st.Error)
	}
	got, err := testClient(tsDisp).CanonicalLitmus(context.Background(), subDisp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dispatched campaign diverged from RunLitmusShard:\n--- shards ---\n%s\n--- dispatched ---\n%s", want, got)
	}
}

// TestLitmusValidation verifies malformed campaign specs are refused
// with the uniform envelope before any work is admitted.
func TestLitmusValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"unknown arch":     `{"arch": "sparc", "count": 5}`,
		"zero count":       `{"arch": "armv8", "count": 0}`,
		"excessive count":  `{"arch": "armv8", "count": 1000000}`,
		"bad max_threads":  `{"arch": "armv8", "count": 5, "max_threads": 7}`,
		"impossible count": `{"arch": "armv8", "count": 19999, "max_threads": 2}`,
		"negative seed":    `{"arch": "armv8", "count": 5, "seed": -1}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/api/v1/litmus", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if code, _ := decodeEnvelope(t, resp); code != ErrCodeInvalidArgument {
				t.Errorf("envelope code = %q, want %q", code, ErrCodeInvalidArgument)
			}
		})
	}
}

// TestLitmusShardDeterminism pins the executable-side contract the
// wire format relies on: the same shard descriptor produces the same
// Result bytes (wall time aside) on every execution.
func TestLitmusShardDeterminism(t *testing.T) {
	sh := LitmusShard{Arch: "power7", GenSeed: 5, Count: 20, MaxThreads: 3, Trials: 3, Seed: 2, Lo: 4, Hi: 9}
	a, err := RunLitmusShard(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLitmusShard(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := CanonicalRunJSON([]*Result{a})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalRunJSON([]*Result{b})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("shard re-execution diverged:\n%s\n---\n%s", ca, cb)
	}
	if a.Measurements != 5 || a.Samples != 15 {
		t.Errorf("measurements/samples = %d/%d, want 5/15", a.Measurements, a.Samples)
	}
}

// litmusShardAllocsBound is the object count testing.AllocsPerRun gave
// for the shard in TestLitmusShardAllocs when Runner.Run built its own
// machine and rebuilt every thread's program with a fresh builder on
// every trial (Go 1.24, linux/amd64).  Sampling on the explorer's
// harness, with one builder per machine, allocates about a third of it.
const litmusShardAllocsBound = 65_329

// TestLitmusShardAllocs bounds a sampled shard's allocations: 200
// generated tests of 8 trials each on armv8.
func TestLitmusShardAllocs(t *testing.T) {
	sh := LitmusShard{Arch: "armv8", GenSeed: 1, Count: 200, MaxThreads: 4, Trials: 8, Seed: 1, Hi: 200}
	allocs := testing.AllocsPerRun(1, func() {
		res, err := RunLitmusShard(context.Background(), sh)
		if err != nil || res.Status != StatusOK {
			t.Fatalf("shard: %v (%+v)", err, res)
		}
	})
	t.Logf("%.0f objects allocated (bound %d)", allocs, litmusShardAllocsBound)
	if allocs > litmusShardAllocsBound {
		t.Errorf("sampled shard allocated %.0f objects, above %d", allocs, litmusShardAllocsBound)
	}
}
