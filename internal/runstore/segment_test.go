package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func openSmallSegment(t *testing.T, dir string) *SegmentStore {
	t.Helper()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	s.maxSegmentBytes = 512
	s.compactAfter = 0 // explicit compact() only, unless a test opts in
	return s
}

// diskManifest reads the committed manifest, as another process would.
func diskManifest(t *testing.T, dir string) manifest {
	t.Helper()
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// countFiles returns how many directory entries match the suffix.
func countFiles(t *testing.T, dir, contains string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), contains) {
			n++
		}
	}
	return n
}

// TestSegmentSealAndCompact drives the store past several seal
// thresholds, compacts, and proves replay is identical before and
// after — including across a reopen — while the file count shrinks.
func TestSegmentSealAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := openSmallSegment(t, dir)
	for i := 1; i <= 5; i++ {
		id := fmt.Sprintf("run-%d", i)
		if err := s.Begin(id, json.RawMessage(`{"n":`+fmt.Sprint(i)+`}`), time.Now()); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			if err := s.Checkpoint(id, fmt.Sprintf("e%d", j), json.RawMessage(`{"pad":"`+strings.Repeat("x", 64)+`"}`)); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			if err := s.End(id, "done", ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete("run-3"); err != nil {
		t.Fatal(err)
	}
	before, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 4 {
		t.Fatalf("before compact: %d runs, want 4", len(before))
	}
	if sealed := countFiles(t, dir, "seg-"); sealed < 3 {
		t.Fatalf("expected several segments before compact, found %d", sealed)
	}

	if err := s.compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if n := countFiles(t, dir, "compact-"); n != 1 {
		t.Fatalf("after compact: %d compact files, want 1", n)
	}
	after, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRuns(t, before, after)

	// Replay is also stable across close + reopen.
	s.Close()
	s2 := openSmallSegment(t, dir)
	defer s2.Close()
	reopened, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRuns(t, before, reopened)

	// The tombstoned run is physically gone from disk after compaction.
	data, err := os.ReadFile(filepath.Join(dir, diskManifest(t, dir).Sealed[0]))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"run-3"`) {
		t.Fatal("compaction did not reclaim the deleted run")
	}
}

func assertSameRuns(t *testing.T, want, got []*RunRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("run count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.ID != g.ID || w.EndState != g.EndState || w.EndError != g.EndError {
			t.Fatalf("run %d: got %s/%q, want %s/%q", i, g.ID, g.EndState, w.ID, w.EndState)
		}
		if len(w.Experiments) != len(g.Experiments) {
			t.Fatalf("%s: %d experiments, want %d", g.ID, len(g.Experiments), len(w.Experiments))
		}
		for j := range w.Experiments {
			if w.Experiments[j].Name != g.Experiments[j].Name ||
				string(w.Experiments[j].Result) != string(g.Experiments[j].Result) {
				t.Fatalf("%s experiment %d differs", g.ID, j)
			}
		}
	}
}

// TestSegmentAutoCompact lets the append path trigger compaction on
// its own and verifies the sealed count stays bounded.
func TestSegmentAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s := openSmallSegment(t, dir)
	defer s.Close()
	s.compactAfter = 3
	for i := 1; i <= 8; i++ {
		id := fmt.Sprintf("run-%d", i)
		if err := s.Begin(id, json.RawMessage(`{}`), time.Now()); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if err := s.Checkpoint(id, fmt.Sprintf("e%d", j), json.RawMessage(`{"pad":"`+strings.Repeat("y", 80)+`"}`)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.End(id, "done", ""); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	sealed := len(s.man.Sealed)
	s.mu.Unlock()
	if sealed >= 2*s.compactAfter {
		t.Fatalf("auto-compaction not bounding sealed segments: %d", sealed)
	}
	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("replay after auto-compact: %d runs, want 8", len(runs))
	}
	for _, r := range runs {
		if len(r.Experiments) != 8 || r.EndState != "done" {
			t.Fatalf("%s incomplete after auto-compact", r.ID)
		}
	}
}

// TestSegmentOrphanCleanup simulates the compaction crash window before
// the manifest commit: the orphaned compact file must never be replayed,
// must survive open and Load (another handle may be about to commit it),
// and must be gone once this handle's first append repairs the store.
func TestSegmentOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	s := openSmallSegment(t, dir)
	fill(t, s)
	s.Close()
	// A compact file the manifest does not reference = crash before the
	// manifest commit.
	orphan := filepath.Join(dir, "compact-00009999.log")
	if err := os.WriteFile(orphan, []byte(`{"rec":"spec","id":"run-666","spec":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openSmallSegment(t, dir)
	defer s2.Close()
	checkFill(t, s2) // exactly the filled runs: run-666 is not replayed
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("orphan compact file removed before the first append: %v", err)
	}
	if err := s2.End("run-2", "done", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan compact file survived the first append")
	}
	runs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.ID == "run-666" {
			t.Fatal("orphan compact file leaked into replay")
		}
	}
}

// TestSegmentCompactLeftovers: a crash between compaction's manifest
// commit and the removal of the segments it folded leaves those files
// behind.  They must never replay again: specs, checkpoints and end
// records would fold to the same state, but assign records would repeat,
// and the next compaction would keep the copies.  The writer's first
// mutation removes them.
func TestSegmentCompactLeftovers(t *testing.T) {
	dir := t.TempDir()
	s := openSmallSegment(t, dir)
	if err := s.Begin("litmus-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign("litmus-1", "shard-00000-00002", "w1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pad := json.RawMessage(`{"pad":"` + strings.Repeat("x", 400) + `"}`)
		if err := s.Checkpoint("litmus-1", fmt.Sprintf("shard-%d", i), pad); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, path := range segs {
		if saved[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Put the folded segments back, as a crash before their removal
	// leaves them.
	for path, data := range saved {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("compaction did not remove %s", filepath.Base(path))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(saved) < 3 {
		t.Fatalf("compaction folded %d segments, want several", len(saved))
	}

	s2 := openSmallSegment(t, dir)
	defer s2.Close()
	check := func(when string) {
		t.Helper()
		runs, err := s2.Load()
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(runs, func(r *RunRecord) bool { return r.ID == "litmus-1" })
		if i < 0 {
			t.Fatalf("%s: replay lost litmus-1", when)
		}
		if n, m := len(runs[i].Assignments), len(runs[i].Experiments); n != 1 || m != 4 {
			t.Errorf("%s: litmus-1 replays %d assign records and %d checkpoints, want 1 and 4", when, n, m)
		}
	}
	check("after reopening")
	if err := s2.Begin("run-2", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	check("after the first append")
	for path := range saved {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("folded segment %s survived the writer's repairs", filepath.Base(path))
		}
	}
	if err := s2.compact(); err != nil {
		t.Fatal(err)
	}
	check("after the next compaction")
}

// TestSegmentTornActiveTrimmed proves a partial final line is truncated
// on recovery so the first post-restart append is not silently merged
// into garbage.
func TestSegmentTornActiveTrimmed(t *testing.T) {
	dir := t.TempDir()
	s := openSmallSegment(t, dir)
	if err := s.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	active := s.activeName
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, active), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"rec":"end","id":"run-1","sta`) // no newline: torn
	f.Close()

	s2 := openSmallSegment(t, dir)
	defer s2.Close()
	if err := s2.Checkpoint("run-1", "a", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	runs, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].EndState != "" {
		t.Fatalf("torn end record applied: %+v", runs)
	}
	if string(runs[0].Experiment("a")) != `{"v":1}` {
		t.Fatal("post-recovery checkpoint lost to the torn tail")
	}
}

// TestLeaseContention races many claimants for one lease and asserts
// exactly one wins each term.
func TestLeaseContention(t *testing.T) {
	t.Run(KindSegment, func(t *testing.T) {
		s := openSeg(t, t.TempDir())
		defer s.Close()
		const claimants = 8
		var wg sync.WaitGroup
		winners := make(chan string, claimants)
		for i := 0; i < claimants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, ok, err := s.TryAcquireLease(fmt.Sprintf("node-%d", i), time.Minute); err != nil {
					t.Errorf("TryAcquireLease: %v", err)
				} else if ok {
					winners <- fmt.Sprintf("node-%d", i)
				}
			}(i)
		}
		wg.Wait()
		close(winners)
		var won []string
		for w := range winners {
			won = append(won, w)
		}
		if len(won) != 1 {
			t.Fatalf("winners: %v, want exactly 1", won)
		}
		lease, ok, err := s.ReadLease()
		if err != nil || !ok || lease.Owner != won[0] {
			t.Fatalf("lease after contention: %+v ok=%v err=%v (winner %s)", lease, ok, err, won[0])
		}
	})
}

// TestSegmentStandbySeesLeaderWrites is an HA standby beside a live
// leader: a handle opened after the leader's first record must replay
// every record the leader commits later, across seals, and must not
// reuse a run ID.  Once it writes itself, after Fence as a promotion
// does, its records must go to fresh segments, never into one the
// leader sealed.  Fence does the same for a handle that wrote before
// the other sealed: its next write starts from the disk.
func TestSegmentStandbySeesLeaderWrites(t *testing.T) {
	dir := t.TempDir()
	open := func() *SegmentStore {
		s, err := OpenSegment(dir)
		if err != nil {
			t.Fatalf("OpenSegment: %v", err)
		}
		s.maxSegmentBytes = 2 << 10
		s.compactAfter = 0
		t.Cleanup(func() { s.Close() })
		return s
	}
	pad := strings.Repeat("p", 100)
	writeRun := func(s *SegmentStore, n int, by string) {
		t.Helper()
		id := fmt.Sprintf("run-%d", n)
		if err := s.Begin(id, json.RawMessage(`{"by":"`+by+`"}`), time.Now()); err != nil {
			t.Fatalf("%s Begin %s: %v", by, id, err)
		}
		for j := 0; j < 3; j++ {
			res := json.RawMessage(`{"by":"` + by + `","pad":"` + pad + `"}`)
			if err := s.Checkpoint(id, fmt.Sprintf("e%d", j), res); err != nil {
				t.Fatalf("%s Checkpoint %s: %v", by, id, err)
			}
		}
		if err := s.End(id, "done", by); err != nil {
			t.Fatalf("%s End %s: %v", by, id, err)
		}
	}

	leader := open()
	writeRun(leader, 1, "leader")
	standby := open()
	for n := 2; n <= 12; n++ {
		writeRun(leader, n, "leader")
	}
	sealed := map[string][]byte{}
	for _, name := range diskManifest(t, dir).Sealed {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sealed[name] = data
	}
	if len(sealed) < 3 {
		t.Fatalf("leader sealed %d segments, want at least 3", len(sealed))
	}

	runs, err := standby.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 12 {
		t.Fatalf("standby Load replayed %d of 12 runs", len(runs))
	}
	if got := maxRunSeq(t, standby); got != 12 {
		t.Fatalf("standby's highest replayed run ID = %d, want 12", got)
	}

	// Failover: the standby arms the next term and writes past a seal,
	// then the old leader's handle writes again under a newer one.
	if err := standby.Fence("standby", 2); err != nil {
		t.Fatal(err)
	}
	writeRun(standby, 13, "standby")
	writeRun(standby, 14, "standby")
	if err := leader.Fence("leader", 3); err != nil {
		t.Fatal(err)
	}
	writeRun(leader, 15, "leader")

	for name, want := range sealed {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("sealed segment %s changed after the failover (err %v)", name, err)
		}
	}
	runs, err = open().Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 15 {
		t.Fatalf("fresh replay: %d runs, want 15", len(runs))
	}
	for i, r := range runs {
		by := "leader"
		if i == 12 || i == 13 {
			by = "standby"
		}
		if r.ID != fmt.Sprintf("run-%d", i+1) || string(r.Spec) != `{"by":"`+by+`"}` ||
			r.EndState != "done" || r.EndError != by || len(r.Experiments) != 3 {
			t.Fatalf("replayed %s: spec %s, end %s/%q, %d experiments; want run-%d written by %s",
				r.ID, r.Spec, r.EndState, r.EndError, len(r.Experiments), i+1, by)
		}
		for _, e := range r.Experiments {
			if !strings.Contains(string(e.Result), `"by":"`+by+`"`) {
				t.Fatalf("%s checkpoint %s = %s, want one written by %s", r.ID, e.Name, e.Result, by)
			}
		}
	}
}

// snapshotDir maps every file name in dir to its bytes.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = string(data)
	}
	return snap
}

// TestSegmentOpenOnlyReads pins that opening and replaying a store
// change nothing on disk, because wmmd opens the store on the leader
// and on every standby, beside a live writer.  The crash repairs wait
// for the first append: the orphaned compaction output goes, the older
// loose segment is adopted, and the torn tail is trimmed.
func TestSegmentOpenOnlyReads(t *testing.T) {
	const at = `"time":"2026-01-01T00:00:00Z"`
	dir := t.TempDir()
	for name, data := range map[string]string{
		manifestFile:           `{"sealed":["seg-00000001.log"],"seq":1}` + "\n",
		"seg-00000001.log":     `{"rec":"spec","id":"run-1",` + at + `,"spec":{}}` + "\n",
		"seg-00000002.log":     `{"rec":"experiment","id":"run-1",` + at + `,"name":"a","result":{"v":1}}` + "\n",
		"seg-00000003.log":     `{"rec":"spec","id":"run-2",` + at + `,"spec":{}}` + "\n" + `{"rec":"end","id":"run-2","sta`,
		"compact-00000004.log": `{"rec":"spec","id":"run-666",` + at + `,"spec":{}}` + "\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotDir(t, dir)

	s := openSmallSegment(t, dir)
	defer s.Close()
	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || string(runs[0].Experiment("a")) != `{"v":1}` || runs[1].EndState != "" {
		t.Fatalf("replay: %d runs %+v, want run-1 with checkpoint a and interrupted run-2", len(runs), runs)
	}
	if got := maxRunSeq(t, s); got != 2 {
		t.Fatalf("highest replayed run ID = %d, want 2", got)
	}
	if after := snapshotDir(t, dir); !maps.Equal(before, after) {
		t.Fatalf("open and replay changed the store:\nbefore %q\nafter  %q", before, after)
	}

	if err := s.Begin("run-3", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "compact-00000004.log")); !os.IsNotExist(err) {
		t.Errorf("orphan compact file survived the first append: %v", err)
	}
	if got := diskManifest(t, dir).Sealed; !slices.Equal(got, []string{"seg-00000001.log", "seg-00000002.log"}) {
		t.Errorf("manifest after the first append seals %v, want seg-1 and the adopted seg-2", got)
	}
	active, err := os.ReadFile(filepath.Join(dir, "seg-00000003.log"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSuffix(string(active), "\n"), "\n"); len(lines) != 2 ||
		!strings.Contains(lines[0], `"id":"run-2"`) || !strings.Contains(lines[1], `"id":"run-3"`) {
		t.Errorf("active segment after the first append:\n%s\nwant run-2's spec, then run-3's, and no torn tail", active)
	}

	// Two processes opening one fresh directory at once both succeed.
	for round := 0; round < 50; round++ {
		fresh := filepath.Join(t.TempDir(), "store")
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if s, err := OpenSegment(fresh); err != nil {
					t.Errorf("concurrent OpenSegment: %v", err)
				} else {
					s.Close()
				}
			}()
		}
		wg.Wait()
	}
}

// TestSegmentRefusesJSONLDir: a directory of the retired per-run JSONL
// layout must not open as an empty store that silently ignores its runs.
func TestSegmentRefusesJSONLDir(t *testing.T) {
	dir := t.TempDir()
	line := `{"rec":"spec","id":"run-1","time":"2026-01-01T00:00:00Z","spec":{}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "run-1.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegment(dir)
	if err == nil {
		runs, _ := s.Load()
		top := maxRunSeq(t, s)
		s.Close()
		t.Fatalf("OpenSegment over a per-run JSONL directory: no error; %d runs replayed, highest run ID %d", len(runs), top)
	}
	for _, want := range []string{"run-1.jsonl", "no longer read", filepath.Join(dir, cacheDir) + "/ is kept"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// TestSegmentAppendErrorMeansNotWritten forces a seal to fail, because a
// file already holds the next segment's name, and pins the append
// contract: every append that returned nil replays, none that returned
// an error does, and the store keeps accepting appends afterwards.
func TestSegmentAppendErrorMeansNotWritten(t *testing.T) {
	dir := t.TempDir()
	s := openSmallSegment(t, dir)
	defer s.Close()
	if err := s.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	next := fmt.Sprintf("seg-%08d.log", segSeq(s.activeName)+1)
	if err := os.WriteFile(filepath.Join(dir, next), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var landed, failed []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("e%d", i)
		if err := s.Checkpoint("run-1", name, json.RawMessage(`{"pad":"`+strings.Repeat("z", 64)+`"}`)); err != nil {
			failed = append(failed, name)
		} else {
			landed = append(landed, name)
		}
	}
	if len(failed) == 0 {
		t.Fatal("no append failed; the forced seal failure never happened")
	}
	if len(failed) > 1 || failed[0] == "e11" {
		t.Errorf("appends %v failed; want one failure and appends accepted again after it", failed)
	}
	fresh := openSmallSegment(t, dir)
	defer fresh.Close()
	runs, err := fresh.Load()
	if err != nil {
		t.Fatal(err)
	}
	var replayed []string
	for _, e := range runs[0].Experiments {
		replayed = append(replayed, e.Name)
	}
	if !slices.Equal(replayed, landed) {
		t.Fatalf("replayed checkpoints %v, want exactly the appends that returned nil %v (failed: %v)", replayed, landed, failed)
	}
}
