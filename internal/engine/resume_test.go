package engine

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/runstore"
)

// resumeSpec is the run used by the checkpoint/resume tests: fig4 is
// quick (calibration-only) and checkpoints early; ext-c11 drives many
// pooled samples and takes far longer.  parallel=2 runs them
// concurrently, so fig4's checkpoint lands while ext-c11 is still
// mid-flight — the window the crash test interrupts in.
const resumeSpec = `{"experiments": ["fig4", "ext-c11"], "short": true, "samples": 2, "seed": 3, "parallel": 2}`

// runToCanonical executes resumeSpec uninterrupted on a store-less
// server and returns the canonical JSON of its final results, as served
// by GET /api/v1/runs/{id}?canonical=1.
func runToCanonical(t *testing.T) []byte {
	t.Helper()
	ts, _, _ := newTestServerOpts(t, ServerOptions{Parallel: 2})
	id := postRun(t, ts, resumeSpec)
	st := waitState(t, ts, id, 5*time.Minute)
	if st.State != StateDone {
		t.Fatalf("baseline run ended %s (err %q)", st.State, st.Error)
	}
	raw, err := testClient(ts).CanonicalRun(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCrashResumeDeterminism is the headline robustness property: a run
// interrupted mid-experiment and resumed by a fresh server produces
// final results byte-identical (in canonical form — wall time zeroed) to
// an uninterrupted run of the same spec and seed.
func TestCrashResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ext-c11 three times")
	}
	want := runToCanonical(t)
	dir := t.TempDir()

	// Server A: every pooled sample is slowed a little, so the shutdown
	// below reliably lands while ext-c11 is mid-flight.  Delays change
	// timing only, never sample values.
	storeA, err := runstore.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	engA := New(Options{Workers: 2, Fault: faultinject.New(faultinject.Rule{
		Point:  faultinject.PointSample,
		Action: faultinject.Action{Delay: 20 * time.Millisecond},
	})})
	apiA := NewServer(engA, ServerOptions{Parallel: 2, Store: storeA})
	tsA := httptest.NewServer(apiA.Handler())
	id := postRun(t, tsA, resumeSpec)

	// Wait for fig4's checkpoint to be durable, then "crash": Shutdown
	// cancels the run but deliberately writes no terminal record, which
	// is exactly the on-disk state a killed process leaves.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		runs, err := storeA.Load()
		if err == nil && len(runs) == 1 && runs[0].Experiment("fig4") != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fig4 checkpoint never became durable")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := apiA.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	tsA.Close()
	engA.Close()

	runs, err := storeA.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].EndState != "" {
		t.Fatalf("interrupted run not resumable on disk: %+v", runs)
	}

	// Server B: a fresh process image over the same data directory.
	storeB, err := runstore.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	engB := New(Options{Workers: 2})
	t.Cleanup(engB.Close)
	apiB := NewServer(engB, ServerOptions{Parallel: 2, Store: storeB})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		apiB.Shutdown(ctx)
	})
	resumed, restored, err := apiB.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 || restored != 0 {
		t.Fatalf("Restore = %d resumed / %d restored, want 1/0", resumed, restored)
	}
	tsB := httptest.NewServer(apiB.Handler())
	t.Cleanup(tsB.Close)

	st := waitState(t, tsB, id, 5*time.Minute)
	if st.State != StateDone {
		t.Fatalf("resumed run ended %s (err %q)", st.State, st.Error)
	}
	if !st.Resumed {
		t.Error("resumed run not marked Resumed")
	}
	got, err := testClient(tsB).CanonicalRun(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed run diverged from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}

	// The resume is terminal on disk, and counted.
	runs, err = storeB.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].EndState != StateDone {
		t.Errorf("resumed run end state on disk = %+v", runs)
	}
	if got := apiB.met.runsResumed.Value(); got != 1 {
		t.Errorf("wmm_runs_resumed_total = %v, want 1", got)
	}
}

// TestRestoreFinishedRun verifies a completed run survives a restart as
// a read-only catalogue entry, ID sequencing continues past it, and
// DELETE removes its file.
func TestRestoreFinishedRun(t *testing.T) {
	dir := t.TempDir()
	storeA, err := runstore.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	engA := New(Options{Workers: 2})
	apiA := NewServer(engA, ServerOptions{Parallel: 2, Store: storeA})
	tsA := httptest.NewServer(apiA.Handler())
	id := postRun(t, tsA, `{"experiments": ["fig4"], "short": true, "samples": 2, "seed": 3}`)
	first := waitState(t, tsA, id, 2*time.Minute)
	if first.State != StateDone {
		t.Fatalf("run ended %s", first.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := apiA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	engA.Close()

	storeB, err := runstore.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	tsB, apiB, _ := newTestServerOpts(t, ServerOptions{Parallel: 2, Store: storeB})
	resumed, restored, err := apiB.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || restored != 1 {
		t.Fatalf("Restore = %d resumed / %d restored, want 0/1", resumed, restored)
	}

	st, err := testClient(tsB).Run(context.Background(), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || len(st.Results) != 1 || st.Results[0].Experiment != "fig4" {
		t.Fatalf("restored run = %s with %d results", st.State, len(st.Results))
	}
	if st.Results[0].Status != StatusOK || len(st.Results[0].Tables) != 1 {
		t.Errorf("restored result lost content: %+v", st.Results[0])
	}

	// The sequence continues past the restored run.
	id2 := postRun(t, tsB, `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`)
	if id2 == id {
		t.Fatalf("restarted server reused run ID %s", id)
	}
	waitState(t, tsB, id2, 2*time.Minute)

	// DELETE removes the restored run from disk too.
	if _, err := testClient(tsB).CancelRun(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	runs, err := storeB.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.ID == id {
			t.Errorf("deleted run still on disk: %+v", r)
		}
	}
}

// TestReadyz verifies readiness is distinct from liveness: ready while
// serving, 503 once shutdown begins, and the store state is reported.
func TestReadyz(t *testing.T) {
	storeDir := t.TempDir()
	store, err := runstore.OpenSegment(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 2})
	t.Cleanup(eng.Close)
	api := NewServer(eng, ServerOptions{Parallel: 2, Store: store})
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	var out map[string]any
	resp := getJSON(t, ts.URL+"/readyz", &out)
	if resp.StatusCode != http.StatusOK || out["ready"] != true || out["store"] != "ok" {
		t.Errorf("readyz while serving = %d %v", resp.StatusCode, out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := api.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp = getJSON(t, ts.URL+"/readyz", &out)
	if resp.StatusCode != http.StatusServiceUnavailable || out["ready"] != false {
		t.Errorf("readyz after shutdown = %d %v", resp.StatusCode, out)
	}

	// healthz stays 200 through shutdown: liveness, not readiness.
	resp = getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after shutdown = %d", resp.StatusCode)
	}
}

// TestReadyzWithoutStore verifies a store-less server is still ready,
// reporting durability as disabled rather than broken.
func TestReadyzWithoutStore(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]any
	resp := getJSON(t, ts.URL+"/readyz", &out)
	if resp.StatusCode != http.StatusOK || out["ready"] != true || out["store"] != "disabled" {
		t.Errorf("readyz = %d %v", resp.StatusCode, out)
	}
}

// TestPartialRunState verifies the run-level degradation path: when some
// experiments fail and others succeed, the run ends "partial" with every
// result's status explicit, instead of all-or-nothing "failed".
func TestPartialRunState(t *testing.T) {
	eng := New(Options{Workers: 2, Fault: faultinject.New(faultinject.Rule{
		Point:  faultinject.PointSample, // fails every pooled sample: ext-c11, not fig4
		Action: faultinject.Action{Err: errors.New("broken rig")},
	})})
	t.Cleanup(eng.Close)
	api := NewServer(eng, ServerOptions{Parallel: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		api.Shutdown(ctx)
	})
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	id := postRun(t, ts, `{"experiments": ["fig4", "ext-c11"], "short": true, "samples": 1, "seed": 3, "parallel": 2}`)
	st := waitState(t, ts, id, 2*time.Minute)
	if st.State != StatePartial {
		t.Fatalf("run ended %s (err %q), want partial", st.State, st.Error)
	}
	if st.Results[0].Status != StatusOK {
		t.Errorf("fig4 status = %q, want ok", st.Results[0].Status)
	}
	if s := st.Results[1].Status; s != StatusFailed && s != StatusIncomplete {
		t.Errorf("ext-c11 status = %q, want failed or incomplete", s)
	}

	var sb strings.Builder
	if err := eng.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `wmm_runs_total{state="partial"} 1`) {
		t.Error("exposition missing the partial run transition")
	}
}
