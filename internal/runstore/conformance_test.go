package runstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The Storage conformance suite: the observable behaviour of run
// records, torn-tail replay, the cache layer, and the coordinator lease.
// Run under -race in CI — the suite includes a concurrent-access section.

// openSeg opens a segment store with its thresholds shrunk, so sealing
// and compaction actually happen inside the suite.
func openSeg(t *testing.T, dir string) Storage {
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	s.maxSegmentBytes = 4 << 10
	s.compactAfter = 3
	return s
}

func TestStorageConformance(t *testing.T) {
	t.Run(KindSegment, func(t *testing.T) {
		t.Run("roundtrip", func(t *testing.T) { conformRoundtrip(t, openSeg) })
		t.Run("reopen", func(t *testing.T) { conformReopen(t, openSeg) })
		t.Run("torn-tail", func(t *testing.T) { conformTornTail(t, openSeg) })
		t.Run("delete-maxseq", func(t *testing.T) { conformDeleteMaxSeq(t, openSeg) })
		t.Run("invalid-id", func(t *testing.T) { conformInvalidID(t, openSeg) })
		t.Run("cache", func(t *testing.T) { conformCache(t, openSeg) })
		t.Run("lease", func(t *testing.T) { conformLease(t, openSeg) })
		t.Run("lease-grace", func(t *testing.T) { conformLeaseGraceHolderTTL(t, openSeg) })
		t.Run("fencing", func(t *testing.T) { conformFencing(t, openSeg) })
		t.Run("concurrent", func(t *testing.T) { conformConcurrent(t, openSeg) })
	})
}

// fill writes a canonical little population of runs: run-1 finished
// with two experiments and an assignment, run-2 interrupted after one
// checkpoint (with a superseded earlier checkpoint), run-10 finished
// empty (tests numeric ID ordering).
func fill(t *testing.T, s Storage) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	must(s.Begin("run-1", json.RawMessage(`{"experiments":["a","b"]}`), time.Now()))
	must(s.Assign("run-1", "a", "worker-1"))
	must(s.Checkpoint("run-1", "a", json.RawMessage(`{"v":1}`)))
	must(s.Checkpoint("run-1", "b", json.RawMessage(`{"v":2}`)))
	must(s.End("run-1", "done", ""))

	must(s.Begin("run-2", json.RawMessage(`{"experiments":["c"]}`), time.Now()))
	must(s.Checkpoint("run-2", "c", json.RawMessage(`{"v":"stale"}`)))
	must(s.Checkpoint("run-2", "c", json.RawMessage(`{"v":"fresh"}`)))

	must(s.Begin("run-10", json.RawMessage(`{"experiments":[]}`), time.Now()))
	must(s.End("run-10", "failed", "boom"))
}

// checkFill asserts the population written by fill replays intact.
func checkFill(t *testing.T, s Storage) {
	t.Helper()
	runs, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("Load: got %d runs, want 3", len(runs))
	}
	if runs[0].ID != "run-1" || runs[1].ID != "run-2" || runs[2].ID != "run-10" {
		t.Fatalf("Load order: got %s,%s,%s", runs[0].ID, runs[1].ID, runs[2].ID)
	}
	r1 := runs[0]
	if r1.EndState != "done" || len(r1.Experiments) != 2 {
		t.Fatalf("run-1: state=%q experiments=%d", r1.EndState, len(r1.Experiments))
	}
	if string(r1.Experiment("a")) != `{"v":1}` || string(r1.Experiment("b")) != `{"v":2}` {
		t.Fatalf("run-1 checkpoints: a=%s b=%s", r1.Experiment("a"), r1.Experiment("b"))
	}
	if len(r1.Assignments) != 1 || r1.Assignments[0].Worker != "worker-1" || r1.Assignments[0].Name != "a" {
		t.Fatalf("run-1 assignments: %+v", r1.Assignments)
	}
	r2 := runs[1]
	if r2.EndState != "" {
		t.Fatalf("run-2 should be interrupted, got state %q", r2.EndState)
	}
	if string(r2.Experiment("c")) != `{"v":"fresh"}` {
		t.Fatalf("run-2 re-checkpoint: got %s, want last write", r2.Experiment("c"))
	}
	if runs[2].EndState != "failed" || runs[2].EndError != "boom" {
		t.Fatalf("run-10: state=%q err=%q", runs[2].EndState, runs[2].EndError)
	}
}

func conformRoundtrip(t *testing.T, open func(*testing.T, string) Storage) {
	s := open(t, t.TempDir())
	defer s.Close()
	if err := s.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	fill(t, s)
	checkFill(t, s)
}

func conformReopen(t *testing.T, open func(*testing.T, string) Storage) {
	dir := t.TempDir()
	s := open(t, dir)
	fill(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := open(t, dir)
	defer s2.Close()
	checkFill(t, s2)
	// The reopened store must keep accepting appends.
	if err := s2.End("run-2", "done", ""); err != nil {
		t.Fatalf("End after reopen: %v", err)
	}
}

func conformTornTail(t *testing.T, open func(*testing.T, string) Storage) {
	dir := t.TempDir()
	s := open(t, dir)
	fill(t, s)
	s.Close()
	// Simulate a crash mid-append: garbage at the tail of every record
	// file.  The fsynced prefix must survive untouched.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".log") {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"rec":"experiment","id":"run-2","name":"torn`)
		f.Close()
		torn++
	}
	if torn == 0 {
		t.Fatal("no record files found to tear")
	}
	s2 := open(t, dir)
	defer s2.Close()
	checkFill(t, s2)
}

// maxRunSeq is the highest N among the run-N IDs Load replays: the
// sequence a restarted server continues past.
func maxRunSeq(t *testing.T, s Storage) int {
	t.Helper()
	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	top := 0
	for _, r := range runs {
		if n, err := strconv.Atoi(strings.TrimPrefix(r.ID, "run-")); err == nil {
			top = max(top, n)
		}
	}
	return top
}

func conformDeleteMaxSeq(t *testing.T, open func(*testing.T, string) Storage) {
	s := open(t, t.TempDir())
	defer s.Close()
	fill(t, s)
	if got := maxRunSeq(t, s); got != 10 {
		t.Fatalf("highest replayed run ID: got %d, want 10", got)
	}
	if err := s.Delete("run-10"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	runs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.ID == "run-10" {
			t.Fatal("run-10 still replayed after Delete")
		}
	}
	if got := maxRunSeq(t, s); got != 2 {
		t.Fatalf("highest replayed run ID after delete: got %d, want 2", got)
	}
	// Deleting an absent run is not an error (idempotent GC).
	if err := s.Delete("run-999"); err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
}

func conformInvalidID(t *testing.T, open func(*testing.T, string) Storage) {
	s := open(t, t.TempDir())
	defer s.Close()
	for _, id := range []string{"", "../evil", "a/b", `a\b`} {
		if err := s.Begin(id, json.RawMessage(`{}`), time.Now()); err == nil {
			t.Errorf("Begin(%q): no error", id)
		}
		if err := s.Delete(id); err == nil {
			t.Errorf("Delete(%q): no error", id)
		}
	}
}

func conformCache(t *testing.T, open func(*testing.T, string) Storage) {
	s := open(t, t.TempDir())
	defer s.Close()
	key := "0123456789abcdef"
	if _, ok := s.CacheGet(key); ok {
		t.Fatal("CacheGet: hit on empty cache")
	}
	if err := s.CachePut(key, []byte(`{"x":1}`)); err != nil {
		t.Fatalf("CachePut: %v", err)
	}
	if data, ok := s.CacheGet(key); !ok || string(data) != `{"x":1}` {
		t.Fatalf("CacheGet: ok=%v data=%s", ok, data)
	}
	// Overwrite is atomic: last write wins.
	if err := s.CachePut(key, []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.CacheGet(key); string(data) != `{"x":2}` {
		t.Fatalf("CacheGet after overwrite: %s", data)
	}
	for _, bad := range []string{"", "XYZ", "../../etc/passwd", strings.Repeat("a", 200)} {
		if err := s.CachePut(bad, []byte("x")); err == nil {
			t.Errorf("CachePut(%q): no error", bad)
		}
	}
	if n := s.CacheSweep(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("CacheSweep: removed %d, want 1", n)
	}
	if _, ok := s.CacheGet(key); ok {
		t.Fatal("CacheGet: hit after sweep")
	}
}

func conformLease(t *testing.T, open func(*testing.T, string) Storage) {
	s := open(t, t.TempDir())
	defer s.Close()
	ttl := 200 * time.Millisecond

	if _, ok, err := s.ReadLease(); err != nil || ok {
		t.Fatalf("ReadLease on fresh store: ok=%v err=%v", ok, err)
	}
	lease, ok, err := s.TryAcquireLease("alpha", ttl)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if lease.Owner != "alpha" || lease.Term != 1 {
		t.Fatalf("acquire: %+v", lease)
	}
	// A live foreign lease blocks.
	if got, ok, _ := s.TryAcquireLease("beta", ttl); ok {
		t.Fatalf("beta acquired over live lease: %+v", got)
	}
	// The holder renews.
	renewed, ok, err := s.RenewLease("alpha", lease.Term, ttl)
	if err != nil || !ok {
		t.Fatalf("renew: ok=%v err=%v", ok, err)
	}
	if !renewed.Expires.After(lease.Expires) {
		t.Fatal("renew did not extend expiry")
	}
	// A non-holder cannot renew.
	if _, ok, _ := s.RenewLease("beta", lease.Term, ttl); ok {
		t.Fatal("beta renewed alpha's lease")
	}
	// Release lets a rival in immediately, at a higher term.
	if err := s.ReleaseLease("alpha", lease.Term); err != nil {
		t.Fatalf("release: %v", err)
	}
	lease2, ok, err := s.TryAcquireLease("beta", ttl)
	if err != nil || !ok {
		t.Fatalf("beta acquire after release: ok=%v err=%v", ok, err)
	}
	if lease2.Term != 2 {
		t.Fatalf("term not fenced: %+v", lease2)
	}
	// Expiry + grace window: a rival may only claim one full TTL past
	// expiry, and an expired lease cannot be renewed.
	time.Sleep(ttl + ttl/4)
	if _, ok, _ := s.TryAcquireLease("alpha", ttl); ok {
		t.Fatal("alpha claimed inside the grace window")
	}
	if _, ok, _ := s.RenewLease("beta", lease2.Term, ttl); ok {
		t.Fatal("beta renewed an expired lease")
	}
	time.Sleep(ttl)
	lease3, ok, err := s.TryAcquireLease("alpha", ttl)
	if err != nil || !ok {
		t.Fatalf("alpha takeover after grace: ok=%v err=%v", ok, err)
	}
	if lease3.Term != 3 {
		t.Fatalf("takeover term: %+v", lease3)
	}
}

// conformLeaseGraceHolderTTL pins that the takeover grace window is
// sized by the *holder's* recorded TTL, not the acquirer's: a rival
// configured with a tiny -ha-ttl must still grant the holder its full
// TTL of silence before claiming.
func conformLeaseGraceHolderTTL(t *testing.T, open func(*testing.T, string) Storage) {
	s := open(t, t.TempDir())
	defer s.Close()
	const holderTTL = 600 * time.Millisecond
	const rivalTTL = 50 * time.Millisecond

	acquired := time.Now()
	lease, ok, err := s.TryAcquireLease("slow", holderTTL)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if lease.TTLMs != holderTTL.Milliseconds() {
		t.Fatalf("holder TTL not recorded: %+v", lease)
	}
	// Past expiry plus several rival TTLs — where sizing the grace by
	// the acquirer's TTL would already admit the claim — but well inside
	// the holder's full-TTL grace.
	time.Sleep(time.Until(acquired.Add(holderTTL + 4*rivalTTL)))
	if got, ok, _ := s.TryAcquireLease("fast", rivalTTL); ok {
		t.Fatalf("rival claimed inside the holder's grace window: %+v", got)
	}
	// One full holder TTL past expiry, the claim goes through.
	time.Sleep(time.Until(acquired.Add(2*holderTTL + 4*rivalTTL)))
	lease2, ok, err := s.TryAcquireLease("fast", rivalTTL)
	if err != nil || !ok {
		t.Fatalf("claim after holder grace: ok=%v err=%v", ok, err)
	}
	if lease2.Term != lease.Term+1 || lease2.TTLMs != rivalTTL.Milliseconds() {
		t.Fatalf("claim after holder grace: %+v", lease2)
	}
}

// conformFencing is the split-brain acceptance test, in process: a
// term-T leader's store handle pauses (no renewals), a rival handle on
// the same directory waits out expiry + grace and claims term T+1, and
// from that moment every mutation through the old handle — Begin,
// Checkpoint, Assign, End, Delete, CachePut, and segment compaction —
// is refused with ErrFenced, while reads stay open and the rival writes
// freely.  Two separate handles model two processes; run under -race.
func conformFencing(t *testing.T, open func(*testing.T, string) Storage) {
	dir := t.TempDir()
	old := open(t, dir)
	defer old.Close()
	const ttl = 200 * time.Millisecond

	lease, ok, err := old.TryAcquireLease("old-leader", ttl)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if err := old.Fence("old-leader", lease.Term); err != nil {
		t.Fatalf("Fence: %v", err)
	}
	// While its lease stands, the armed handle mutates freely.
	if err := old.Begin("run-1", json.RawMessage(`{"experiments":["a"]}`), time.Now()); err != nil {
		t.Fatalf("Begin while leading: %v", err)
	}
	if err := old.Checkpoint("run-1", "a", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatalf("Checkpoint while leading: %v", err)
	}

	// The leader stalls: no renewals, no release.  A second process —
	// its own handle on the same directory — waits out expiry + grace
	// and takes the next term.
	rival := open(t, dir)
	defer rival.Close()
	var lease2 CoordLease
	deadline := time.Now().Add(10 * time.Second)
	for {
		lease2, ok, err = rival.TryAcquireLease("rival", ttl)
		if err != nil {
			t.Fatalf("rival acquire: %v", err)
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rival never took the lease")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lease2.Term != lease.Term+1 {
		t.Fatalf("takeover term = %d, want %d", lease2.Term, lease.Term+1)
	}
	if err := rival.Fence("rival", lease2.Term); err != nil {
		t.Fatalf("rival Fence: %v", err)
	}

	// The stalled leader wakes up and tries to keep writing: every
	// mutation must come back ErrFenced.
	fenced := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("%s after takeover: %v, want ErrFenced", op, err)
		}
	}
	fenced("Begin", old.Begin("run-9", json.RawMessage(`{}`), time.Now()))
	fenced("Checkpoint", old.Checkpoint("run-1", "a", json.RawMessage(`{"v":2}`)))
	fenced("Assign", old.Assign("run-1", "a", "w1"))
	fenced("End", old.End("run-1", "done", ""))
	fenced("Delete", old.Delete("run-1"))
	fenced("CachePut", old.CachePut("00ff", []byte(`{"x":1}`)))
	fenced("compact", old.(*SegmentStore).compact())

	// Reads are never fenced: the deposed process may still inspect.
	if _, err := old.Load(); err != nil {
		t.Fatalf("Load on fenced handle: %v", err)
	}
	if _, _, err := old.ReadLease(); err != nil {
		t.Fatalf("ReadLease on fenced handle: %v", err)
	}

	// The new leader's writes all land, and the old leader's fenced
	// attempts left no trace: run-1 still has its original checkpoint,
	// run-9 does not exist.
	if err := rival.End("run-1", "done", ""); err != nil {
		t.Fatalf("rival End: %v", err)
	}
	runs, err := rival.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != "run-1" {
		t.Fatalf("replay after fencing: %d runs", len(runs))
	}
	if string(runs[0].Experiment("a")) != `{"v":1}` || runs[0].EndState != "done" {
		t.Fatalf("run-1 after fencing: exp=%s state=%q", runs[0].Experiment("a"), runs[0].EndState)
	}

	// Disarming reopens the handle (a restarted process re-arming under
	// a fresh term); the invalid arms are rejected.
	if err := old.Fence("x", -1); err == nil {
		t.Fatal("Fence(-1): no error")
	}
	if err := old.Fence("", 7); err == nil {
		t.Fatal("Fence without owner: no error")
	}
	if err := old.Fence("", 0); err != nil {
		t.Fatalf("disarm: %v", err)
	}
	if err := old.Checkpoint("run-1", "b", json.RawMessage(`{"v":3}`)); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
}

func conformConcurrent(t *testing.T, open func(*testing.T, string) Storage) {
	s := open(t, t.TempDir())
	defer s.Close()
	const writers, checkpoints = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("run-%d", w+1)
			if err := s.Begin(id, json.RawMessage(`{"w":true}`), time.Now()); err != nil {
				t.Errorf("Begin %s: %v", id, err)
				return
			}
			for i := 0; i < checkpoints; i++ {
				name := fmt.Sprintf("exp-%d", i)
				if err := s.Checkpoint(id, name, json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
					t.Errorf("Checkpoint %s/%s: %v", id, name, err)
					return
				}
			}
			if err := s.End(id, "done", ""); err != nil {
				t.Errorf("End %s: %v", id, err)
			}
		}(w)
	}
	// Re-arming the fence drops the writer state between appends; the
	// writers must reopen the active segment and lose nothing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Fence("", 0); err != nil {
				t.Errorf("Fence: %v", err)
				return
			}
		}
	}()
	// Concurrent readers and cache traffic while the writers append.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			key := fmt.Sprintf("%032x", r+1)
			for i := 0; i < 10; i++ {
				if _, err := s.Load(); err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				if err := s.CachePut(key, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
					t.Errorf("CachePut: %v", err)
					return
				}
				s.CacheGet(key)
			}
		}(r)
	}
	wg.Wait()
	runs, err := s.Load()
	if err != nil {
		t.Fatalf("final Load: %v", err)
	}
	if len(runs) != writers {
		t.Fatalf("final Load: %d runs, want %d", len(runs), writers)
	}
	for _, r := range runs {
		if r.EndState != "done" || len(r.Experiments) != checkpoints {
			t.Fatalf("%s: state=%q experiments=%d", r.ID, r.EndState, len(r.Experiments))
		}
	}
}

// TestOpenBackend covers the backend selector: the segment store
// opens, and every other kind, the retired JSONL layout included, is
// refused.
func TestOpenBackend(t *testing.T) {
	s, err := OpenBackend(KindSegment, t.TempDir())
	if err != nil {
		t.Fatalf("OpenBackend(%q): %v", KindSegment, err)
	}
	if _, ok := s.(*SegmentStore); !ok {
		t.Fatalf("OpenBackend(%q) = %T", KindSegment, s)
	}
	s.Close()
	for _, kind := range []string{"", "jsonl", "bogus"} {
		if _, err := OpenBackend(kind, t.TempDir()); err == nil {
			t.Errorf("OpenBackend(%q): no error", kind)
		}
	}
}
