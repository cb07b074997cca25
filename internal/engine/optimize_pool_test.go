package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/optimize"
	"repro/wmm/client"
)

// The optimizer's measure and fit cells draw their samples on the engine's
// worker pool, so they get the pool's guards: the sample fault point,
// retries, panic containment, the wmm_engine_* metrics and cancellation.

// optimizeBench is the benchmark name optimSpec's samples run under, the
// key a sample fault rule matches.
const optimizeBench = "optimize/jvm"

// optimizeReference is the canonical report of a direct in-process run of
// optSpecPure.
func optimizeReference(t *testing.T) []byte {
	t.Helper()
	rep, err := optimize.Run(optSpecPure)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestOptimizeSampleRetry injects one transient error into an optimizer
// sample: the engine's retry absorbs it, the job completes with the same
// canonical report as a clean run, and the retry is counted.
func TestOptimizeSampleRetry(t *testing.T) {
	ts, _, eng := newTestServerEngine(t, Options{
		Workers: 2,
		Retry:   RetryPolicy{Max: 1, Base: time.Millisecond, Cap: 5 * time.Millisecond},
		Fault: faultinject.New(faultinject.Rule{
			Point: faultinject.PointSample, Key: optimizeBench, Times: 1,
			Action: faultinject.Action{Err: errors.New("transient")},
		}),
	}, ServerOptions{Parallel: 2})

	sub := submitOptimize(t, ts, optSpecJSON)
	if st := waitOptimize(t, ts, sub.ID); st.State != client.StateDone {
		t.Fatalf("job ended %s (err %q)", st.State, st.Error)
	}
	got, err := testClient(ts).CanonicalOptimize(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := optimizeReference(t); !bytes.Equal(got, want) {
		t.Errorf("retried job's report diverged from a clean run:\n--- retried ---\n%s\n--- clean ---\n%s", got, want)
	}
	if n := eng.fault.Fired(faultinject.PointSample); n != 1 {
		t.Errorf("sample faults fired = %d, want 1", n)
	}
	if got := eng.met.sampleRetries.Value(); got < 1 {
		t.Errorf("wmm_engine_sample_retries_total = %v, want >= 1", got)
	}
}

// TestOptimizeSamplePanic injects a panic into an optimizer sample with no
// retries: the worker contains it, the job fails naming the panic, and
// the server goes on to run the next job.
func TestOptimizeSamplePanic(t *testing.T) {
	ts, _, eng := newTestServerEngine(t, Options{
		Workers: 2,
		Fault: faultinject.New(faultinject.Rule{
			Point: faultinject.PointSample, Key: optimizeBench, Times: 1,
			Action: faultinject.Action{Panic: true},
		}),
	}, ServerOptions{Parallel: 2})

	sub := submitOptimize(t, ts, optSpecJSON)
	st := waitOptimize(t, ts, sub.ID)
	if st.State != client.StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, ErrSamplePanic.Error()) {
		t.Errorf("job error %q does not name the sample panic", st.Error)
	}
	if got := eng.met.panicsRecovered.Value(); got != 1 {
		t.Errorf("panics recovered = %v, want 1", got)
	}

	again := submitOptimize(t, ts, optSpecJSON)
	if st := waitOptimize(t, ts, again.ID); st.State != client.StateDone {
		t.Fatalf("job after the panic ended %s (err %q)", st.State, st.Error)
	}
}

// TestOptimizeSamplesOnEnginePool counts an optimizer job's samples on
// the pool: every score cell (a measure per sound candidate, a fit per
// cost) runs its samples there, and gate cells run none.
func TestOptimizeSamplesOnEnginePool(t *testing.T) {
	ts, eng := newTestServer(t)
	before := eng.met.jobsExecuted.Value()
	sub := submitOptimize(t, ts, optSpecJSON)
	if st := waitOptimize(t, ts, sub.ID); st.State != client.StateDone {
		t.Fatalf("job ended %s (err %q)", st.State, st.Error)
	}
	scoreCells := len(optSpecJSON.Strategies) + len(optSpecJSON.FitCosts)
	want := float64(optSpecJSON.Samples * scoreCells)
	if got := eng.met.jobsExecuted.Value() - before; got != want {
		t.Errorf("wmm_engine_jobs_executed_total rose by %v, want %v (%d samples x %d score cells)",
			got, want, optSpecJSON.Samples, scoreCells)
	}
}

// TestOptimizeMeasureCancelled cancels a measure cell while its samples
// are on the pool: the cell ends cancelled, the status a wmmworker that
// is shutting down does not upload, rather than failed.
func TestOptimizeMeasureCancelled(t *testing.T) {
	e := New(Options{Workers: 1, Fault: faultinject.New(faultinject.Rule{
		Point: faultinject.PointSample, Key: optimizeBench,
		Action: faultinject.Action{Delay: 100 * time.Millisecond},
	})})
	defer e.Close()
	desc, err := json.Marshal(optimize.Cell{Kind: "measure", Strategy: "jdk8-barriers", Spec: optSpecPure.WithDefaults()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the first sample is running on the only worker.
		for e.met.workersBusy.Value() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res, err := e.RunCell(ctx, "optimize", desc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status %s (err %q), want %s", res.Status, res.Err, StatusCancelled)
	}
	if n := e.fault.Fired(faultinject.PointSample); n < 1 || n >= optSpecPure.Samples {
		t.Errorf("%d samples started before the cancellation, want 1..%d", n, optSpecPure.Samples-1)
	}
}
