package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/runstore"
	"repro/wmm/client"
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

// dispatched is how many cells the server's dispatcher finished, in any
// mode.
func dispatched(api *Server) float64 {
	n := 0.0
	for _, mode := range []string{"local", "remote", "cache", "cancelled"} {
		n += api.disp.met.jobsDone.Value(mode)
	}
	return n
}

// storeServer is a server over a segment store at dir.
func storeServer(t *testing.T, dir string, d *DispatchOptions) (*httptest.Server, *Server, *runstore.SegmentStore) {
	t.Helper()
	store, err := runstore.OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts, api, _ := newTestServerOpts(t, ServerOptions{Parallel: 2, Store: store, Dispatch: d})
	return ts, api, store
}

// shutdown stops a server the way a killed process leaves its store:
// in-flight jobs get no end record.
func shutdown(t *testing.T, api *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := api.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// finishedJobs is one finished job of each kind, as a server served it.
type finishedJobs struct {
	run, litmus, optimize string
	canonical             map[string][]byte
	litmusSt              client.LitmusStatus
	optimizeSt            client.OptimizeStatus
}

// finishJobs runs a run, a campaign and an optimizer job to completion
// on a server over a store at dir, then shuts the server down.
func finishJobs(t *testing.T, dir string) finishedJobs {
	t.Helper()
	ts, api, _ := storeServer(t, dir, nil)
	cl := testClient(ts)
	ctx := context.Background()
	f := finishedJobs{canonical: map[string][]byte{}}
	f.run = postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`)
	f.litmus = submitLitmus(t, ts, litmusSpecJSON).ID
	f.optimize = submitOptimize(t, ts, optSpecJSON).ID
	if st := waitState(t, ts, f.run, 2*time.Minute); st.State != StateDone {
		t.Fatalf("run ended %s (err %q)", st.State, st.Error)
	}
	if f.litmusSt = waitLitmus(t, ts, f.litmus); f.litmusSt.State != client.StateDone {
		t.Fatalf("campaign ended %s (err %q)", f.litmusSt.State, f.litmusSt.Error)
	}
	if f.optimizeSt = waitOptimize(t, ts, f.optimize); f.optimizeSt.State != client.StateDone {
		t.Fatalf("optimizer job ended %s (err %q)", f.optimizeSt.State, f.optimizeSt.Error)
	}
	var err error
	if f.canonical[f.run], err = cl.CanonicalRun(ctx, f.run); err != nil {
		t.Fatal(err)
	}
	if f.canonical[f.litmus], err = cl.CanonicalLitmus(ctx, f.litmus); err != nil {
		t.Fatal(err)
	}
	if f.canonical[f.optimize], err = cl.CanonicalOptimize(ctx, f.optimize); err != nil {
		t.Fatal(err)
	}
	shutdown(t, api)
	return f
}

// checkRestored compares a restarted server's view of the finished jobs
// with what the server that ran them served.
func checkRestored(t *testing.T, ts *httptest.Server, f finishedJobs) {
	t.Helper()
	cl := testClient(ts)
	ctx := context.Background()
	for id, fetch := range map[string]func(context.Context, string) ([]byte, error){
		f.run: cl.CanonicalRun, f.litmus: cl.CanonicalLitmus, f.optimize: cl.CanonicalOptimize,
	} {
		got, err := fetch(ctx, id)
		if err != nil {
			t.Errorf("restored %s: canonical JSON: %v", id, err)
		} else if !bytes.Equal(got, f.canonical[id]) {
			t.Errorf("restored %s diverged:\n--- before the restart ---\n%s\n--- after ---\n%s", id, f.canonical[id], got)
		}
	}
	if st, err := cl.Litmus(ctx, f.litmus, false); err != nil {
		t.Errorf("restored %s: %v", f.litmus, err)
	} else if st.State != client.StateDone || st.Completed != f.litmusSt.Completed ||
		st.Tests != f.litmusSt.Tests || st.Trials != f.litmusSt.Trials {
		t.Errorf("restored %s status %+v, want %+v", f.litmus, st, f.litmusSt)
	}
	if st, err := cl.Optimize(ctx, f.optimize); err != nil {
		t.Errorf("restored %s: %v", f.optimize, err)
	} else if want := f.optimizeSt; st.State != client.StateDone || st.Phase != want.Phase ||
		st.Tried != want.Tried || st.RejectedUnsound != want.RejectedUnsound || st.Scored != want.Scored ||
		st.Best != want.Best || st.CellsDone != want.CellsDone || st.Report == nil {
		t.Errorf("restored %s status %+v, want %+v", f.optimize, st, want)
	}
}

// TestRestoreFinishedCampaignAndOptimize: a finished campaign and a
// finished optimizer job survive a restart with byte-identical canonical
// JSON and the status counts they ended with, and each kind's IDs
// continue past the restored ones instead of reissuing them.  Finished
// jobs are rebuilt from their checkpoints alone: on a server with no
// local slot and no worker, Restore returns at once with every job
// complete, and the dispatcher never sees a cell.
func TestRestoreFinishedCampaignAndOptimize(t *testing.T) {
	dir := t.TempDir()
	f := finishJobs(t, dir)

	ts, api, _ := storeServer(t, dir, &DispatchOptions{LocalSlots: -1})
	start := time.Now()
	resumed, restored, err := api.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("Restore took %v with nothing to dispatch", took)
	}
	if resumed != 0 || restored != 3 {
		t.Errorf("Restore = %d resumed / %d restored, want 0/3", resumed, restored)
	}
	checkRestored(t, ts, f)
	if n := dispatched(api); n != 0 {
		t.Errorf("restoring finished jobs dispatched %v cells, want 0", n)
	}
	if n := api.disp.met.inflight.Value(); n != 0 {
		t.Errorf("wmm_dispatch_jobs_inflight = %v after restoring finished jobs, want 0", n)
	}

	// New jobs queue (nothing serves them); only their IDs matter here.
	if id := postRun(t, ts, `{"experiments": ["fig4"], "short": true, "samples": 1, "seed": 3}`); id != "run-2" {
		t.Errorf("next run got ID %s, want run-2", id)
	}
	if id := submitLitmus(t, ts, litmusSpecJSON).ID; id != "litmus-2" {
		t.Errorf("next campaign got ID %s, want litmus-2", id)
	}
	if id := submitOptimize(t, ts, optSpecJSON).ID; id != "optimize-2" {
		t.Errorf("next optimizer job got ID %s, want optimize-2", id)
	}
}

// workCells leases and executes n cells from ts one at a time, as
// cmd/wmmworker does, and stops: the jobs on a server with no local slot
// then have exactly n cells finished.
func workCells(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	eng := New(Options{Workers: 2})
	defer eng.Close()
	cl := testClient(ts)
	ctx := context.Background()
	deadline := time.Now().Add(2 * time.Minute)
	for done := 0; done < n; {
		grant, err := cl.Lease(ctx, "w1", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(grant.Jobs) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d cells were ever queued", done, n)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		job := grant.Jobs[0]
		res, err := eng.RunCell(ctx, job.Kind, job.Cell)
		if err != nil {
			t.Fatalf("cell %s/%s: %v", job.RunID, job.Experiment, err)
		}
		raw, _ := json.Marshal(res)
		up := []client.JobResult{{RunID: job.RunID, Experiment: job.Experiment, Result: raw}}
		if ack, err := cl.UploadResults(ctx, grant.LeaseID, up); err != nil || ack.Accepted != 1 {
			t.Fatalf("upload %s/%s: %+v, %v", job.RunID, job.Experiment, ack, err)
		}
		done++
	}
}

// crashAfter submits a job to a server over a store at dir that has no
// local slot, finishes n of its cells, then stops the server as a
// crash would, and checks that the store holds the job interrupted.
func crashAfter(t *testing.T, dir string, n int, submit func(*httptest.Server) string) string {
	t.Helper()
	ts, api, store := storeServer(t, dir, &DispatchOptions{LocalSlots: -1, LeaseTTL: time.Minute})
	id := submit(ts)
	workCells(t, ts, n)
	shutdown(t, api)
	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != id || recs[0].EndState != "" {
		t.Fatalf("store after the crash holds %+v, want %s interrupted", recs, id)
	}
	return id
}

// resumeFrom restarts a server over dir and checks that Restore resumes
// exactly one job.
func resumeFrom(t *testing.T, dir string) (*httptest.Server, *Server) {
	t.Helper()
	ts, api, _ := storeServer(t, dir, nil)
	resumed, restored, err := api.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 || restored != 0 {
		t.Errorf("Restore = %d resumed / %d restored, want 1/0", resumed, restored)
	}
	return ts, api
}

// TestCrashResumeCampaign: a campaign cut after 3 of its 10 shards
// resumes on a fresh server to canonical JSON byte-identical to an
// uninterrupted campaign, dispatching only the 7 shards it lacked.
func TestCrashResumeCampaign(t *testing.T) {
	spec := client.LitmusSpec{Arch: "armv8", GenSeed: 9, Count: 20, Trials: 4, Seed: 3, ShardSize: 2, Parallel: 2}
	ref, _ := newTestServer(t)
	want, err := testClient(ref).CanonicalLitmus(context.Background(), waitLitmus(t, ref, submitLitmus(t, ref, spec).ID).ID)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	id := crashAfter(t, dir, 3, func(ts *httptest.Server) string { return submitLitmus(t, ts, spec).ID })
	ts, api := resumeFrom(t, dir)
	st := waitLitmus(t, ts, id)
	if st.State != client.StateDone || st.Completed != 10 {
		t.Fatalf("resumed campaign ended %s with %d/10 shards (err %q)", st.State, st.Completed, st.Error)
	}
	got, err := testClient(ts).CanonicalLitmus(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed campaign diverged from an uninterrupted one:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if n := dispatched(api); n != 7 {
		t.Errorf("resumed campaign dispatched %v shards, want the 7 without a checkpoint", n)
	}
	if got := api.met.runsResumed.Value(); got != 1 {
		t.Errorf("wmm_runs_resumed_total = %v, want 1", got)
	}
}

// TestCrashResumeOptimize: an optimizer job cut in its gate wave, and
// one cut in its score wave, each resume on a fresh server to a
// canonical report byte-identical to an uninterrupted job's, with the
// same status counts, dispatching only the cells that had no successful
// checkpoint.  optSpecJSON has 2 gate cells, then 4 score cells.
func TestCrashResumeOptimize(t *testing.T) {
	ref, _ := newTestServer(t)
	wantSt := waitOptimize(t, ref, submitOptimize(t, ref, optSpecJSON).ID)
	want, err := testClient(ref).CanonicalOptimize(context.Background(), wantSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []struct {
		name       string
		done, rest int
	}{{"gate", 1, 5}, {"score", 4, 2}} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			id := crashAfter(t, dir, cut.done, func(ts *httptest.Server) string { return submitOptimize(t, ts, optSpecJSON).ID })
			ts, api := resumeFrom(t, dir)
			st := waitOptimize(t, ts, id)
			if st.State != client.StateDone {
				t.Fatalf("resumed optimizer job ended %s (err %q)", st.State, st.Error)
			}
			if st.Tried != wantSt.Tried || st.RejectedUnsound != wantSt.RejectedUnsound || st.Scored != wantSt.Scored ||
				st.Best != wantSt.Best || st.CellsDone != wantSt.CellsDone {
				t.Errorf("resumed status %+v, want the counts of %+v", st, wantSt)
			}
			got, err := testClient(ts).CanonicalOptimize(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed report diverged from an uninterrupted one:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
			}
			if n := dispatched(api); n != float64(cut.rest) {
				t.Errorf("resumed job dispatched %v cells, want the %d without a checkpoint", n, cut.rest)
			}
		})
	}
}
