package runstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestBeginCheckpointEndRoundTrip(t *testing.T) {
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	if err := s.Begin("run-1", json.RawMessage(`{"short":true}`), started); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("run-1", "fig4", json.RawMessage(`{"experiment":"fig4"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("run-1", "txt3", json.RawMessage(`{"experiment":"txt3"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.End("run-1", "done", ""); err != nil {
		t.Fatal(err)
	}

	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("replayed %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.ID != "run-1" || !r.Started.Equal(started) {
		t.Errorf("identity = %q @ %v", r.ID, r.Started)
	}
	if string(r.Spec) != `{"short":true}` {
		t.Errorf("spec = %s", r.Spec)
	}
	if len(r.Experiments) != 2 || r.Experiments[0].Name != "fig4" || r.Experiments[1].Name != "txt3" {
		t.Errorf("experiments = %+v", r.Experiments)
	}
	if r.EndState != "done" || r.EndError != "" {
		t.Errorf("end = %q/%q", r.EndState, r.EndError)
	}
	if got := r.Experiment("txt3"); string(got) != `{"experiment":"txt3"}` {
		t.Errorf("Experiment(txt3) = %s", got)
	}
	if r.Experiment("nope") != nil {
		t.Error("Experiment(nope) found something")
	}
}

func TestInterruptedRunHasNoEndState(t *testing.T) {
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("run-3", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("run-3", "fig4", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].EndState != "" {
		t.Fatalf("interrupted run replayed as %+v", runs)
	}
}

// TestTornTailTolerated simulates a crash mid-append: the last line is
// truncated garbage.  Replay must keep the durable prefix.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("run-1", "fig4", json.RawMessage(`{"ok":1}`)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, s.activeName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"rec":"experiment","id":"run-1","name":"txt3","result":{"trunc`)
	f.Close()

	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("replayed %d runs, want 1", len(runs))
	}
	if len(runs[0].Experiments) != 1 || runs[0].Experiments[0].Name != "fig4" {
		t.Errorf("torn tail corrupted replay: %+v", runs[0].Experiments)
	}
}

func TestRecheckpointKeepsLast(t *testing.T) {
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Begin("run-1", json.RawMessage(`{}`), time.Now())
	s.Checkpoint("run-1", "fig5", json.RawMessage(`{"attempt":1}`))
	s.Checkpoint("run-1", "fig5", json.RawMessage(`{"attempt":2}`))
	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs[0].Experiments) != 1 || string(runs[0].Experiment("fig5")) != `{"attempt":2}` {
		t.Errorf("re-checkpoint not folded to last: %+v", runs[0].Experiments)
	}
}

func TestDeleteAndMaxSeq(t *testing.T) {
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"run-1", "run-2", "run-10"} {
		if err := s.Begin(id, json.RawMessage(`{}`), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := maxRunSeq(t, s); got != 10 {
		t.Errorf("highest replayed run ID = %d, want 10", got)
	}
	if err := s.Delete("run-10"); err != nil {
		t.Fatal(err)
	}
	if got := maxRunSeq(t, s); got != 2 {
		t.Errorf("highest replayed run ID after delete = %d, want 2", got)
	}
	if err := s.Delete("run-10"); err != nil {
		t.Errorf("deleting a missing run: %v", err)
	}
	runs, _ := s.Load()
	if len(runs) != 2 {
		t.Errorf("%d runs after delete, want 2", len(runs))
	}
	// Load returns numeric ID order.
	if runs[0].ID != "run-1" || runs[1].ID != "run-2" {
		t.Errorf("order = %s, %s", runs[0].ID, runs[1].ID)
	}
}

func TestInvalidRunIDRejected(t *testing.T) {
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../evil", "a/b", `a\b`} {
		if err := s.Begin(id, json.RawMessage(`{}`), time.Now()); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

func TestFaultInjectionAtAppend(t *testing.T) {
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Fault = faultinject.New(faultinject.Rule{
		Point: faultinject.PointStoreAppend, Key: "run-1/experiment", Times: 1,
		Action: faultinject.Action{Err: errors.New("disk full")},
	})
	if err := s.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatalf("spec append hit the experiment-only rule: %v", err)
	}
	if err := s.Checkpoint("run-1", "fig4", json.RawMessage(`{}`)); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("injected append error lost: %v", err)
	}
	// The fault fires before the write: the failed checkpoint is not
	// on disk.
	if runs, err := s.Load(); err != nil || len(runs) != 1 || runs[0].Experiment("fig4") != nil {
		t.Errorf("after the injected failure: runs %+v err %v, want run-1 without fig4", runs, err)
	}
	// The rule is exhausted; the retryed checkpoint lands.
	if err := s.Checkpoint("run-1", "fig4", json.RawMessage(`{}`)); err != nil {
		t.Errorf("second checkpoint failed: %v", err)
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root; permission bits do not bind")
	}
	dir := t.TempDir()
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(ro); err == nil {
		t.Error("read-only directory accepted")
	}
}

// TestAssignRecords verifies worker-assignment records round-trip
// through replay: every dispatch of a job to a worker is folded into
// the run's Assignments in append order (re-queued jobs appear again),
// without disturbing checkpoint-based resume.
func TestAssignRecords(t *testing.T) {
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("run-1", json.RawMessage(`{"experiments":["fig4","txt3"]}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign("run-1", "fig4", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign("run-1", "txt3", "w2"); err != nil {
		t.Fatal(err)
	}
	// txt3's first lease is lost; the re-queued job lands on w1.
	if err := s.Assign("run-1", "txt3", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("run-1", "fig4", json.RawMessage(`{"experiment":"fig4"}`)); err != nil {
		t.Fatal(err)
	}

	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("loaded %d runs, want 1", len(runs))
	}
	run := runs[0]
	want := []struct{ name, worker string }{
		{"fig4", "w1"}, {"txt3", "w2"}, {"txt3", "w1"},
	}
	if len(run.Assignments) != len(want) {
		t.Fatalf("replayed %d assignments, want %d: %+v", len(run.Assignments), len(want), run.Assignments)
	}
	for i, w := range want {
		if run.Assignments[i].Name != w.name || run.Assignments[i].Worker != w.worker {
			t.Errorf("assignment %d = %s/%s, want %s/%s",
				i, run.Assignments[i].Name, run.Assignments[i].Worker, w.name, w.worker)
		}
	}
	// Assignments are an audit trail only: the interrupted run still
	// resumes from its checkpoints.
	if run.EndState != "" || run.Experiment("fig4") == nil || run.Experiment("txt3") != nil {
		t.Errorf("assign records disturbed resume state: %+v", run)
	}
}
