package runstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"testing"
	"time"
)

// NFS-semantics tests: the rename-based lease protocol assumes POSIX
// single-node guarantees that network filesystems historically break —
// close-to-open consistency (a client may serve stale reads from its
// attribute/page cache) and O_EXCL atomicity (not atomic over NFSv2,
// flaky over misconfigured v3).  nfsIO injects exactly those two
// weaknesses under one store handle, so these tests can show where the
// enforced fence holds, where only the fence holds (the rename-confirm
// argument alone does not), and the one residual window that remains a
// mount-option problem (documented in docs/ROBUSTNESS.md).

// nfsIO is a leaseIO whose reads can be frozen — serving each path's
// last-read bytes, the way an NFS client's cache serves stale data
// within its attribute-cache timeout — and whose exclusive creates can
// drop O_EXCL.
type nfsIO struct {
	brokenExcl bool

	mu     sync.Mutex
	frozen bool
	cache  map[string]nfsCached
}

type nfsCached struct {
	data []byte
	err  error
}

func (n *nfsIO) Freeze() {
	n.mu.Lock()
	n.frozen = true
	n.mu.Unlock()
}

func (n *nfsIO) Thaw() {
	n.mu.Lock()
	n.frozen = false
	n.cache = nil
	n.mu.Unlock()
}

func (n *nfsIO) ReadFile(path string) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.frozen {
		if c, ok := n.cache[path]; ok {
			return c.data, c.err
		}
	}
	data, err := os.ReadFile(path)
	if n.frozen {
		if n.cache == nil {
			n.cache = map[string]nfsCached{}
		}
		n.cache[path] = nfsCached{data: data, err: err}
	}
	return data, err
}

func (n *nfsIO) OpenExclusive(path string) (*os.File, error) {
	if n.brokenExcl {
		// O_EXCL dropped: the create "succeeds" even when a rival's
		// claim file already exists, exactly the NFSv2 failure mode.
		return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	}
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

// TestFencingDelayedLeaseVisibility shows both sides of the fence on a
// filesystem with delayed read visibility: while the stalled leader's
// client cache still serves the old lease, its write LANDS — the
// residual window that only mount options (actimeo=0) can close — and
// the moment visibility catches up, the fence refuses everything.
// Without the fence the stalled leader would keep corrupting the store
// forever after; with it the exposure is bounded by the cache delay.
func TestFencingDelayedLeaseVisibility(t *testing.T) {
	dir := t.TempDir()
	leader, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	nfs := &nfsIO{}
	leader.leaseFS.fsio = nfs

	const ttl = 100 * time.Millisecond
	lease, ok, err := leader.TryAcquireLease("leader", ttl)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if err := leader.Fence("leader", lease.Term); err != nil {
		t.Fatal(err)
	}

	// The leader's client cache goes stale from here: every lease read
	// now serves the bytes it saw last.  Prime it with the pre-takeover
	// record via a successful write's fence check.
	nfs.Freeze()
	if err := leader.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatalf("Begin while leading: %v", err)
	}

	// A rival on the same directory (healthy visibility) waits out
	// expiry + grace and claims the next term.
	rival, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rival.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l2, ok, err := rival.TryAcquireLease("rival", ttl)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if l2.Term != lease.Term+1 {
				t.Fatalf("takeover term: %+v", l2)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rival never took over")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stalled leader writes while its lease view is stale: the
	// fence reads term 1, and the write lands.  This is the honest
	// residual window — the fence is only as fresh as a lease read.
	if err := leader.Checkpoint("run-1", "a", json.RawMessage(`{"stale":true}`)); err != nil {
		t.Fatalf("write inside the stale-visibility window: %v (want it to land — the documented residual exposure)", err)
	}

	// Visibility catches up (attribute cache expires): from the very
	// next mutation, the fence holds.
	nfs.Thaw()
	if err := leader.End("run-1", "done", ""); !errors.Is(err, ErrFenced) {
		t.Fatalf("write after visibility caught up: %v, want ErrFenced", err)
	}
	if err := leader.Checkpoint("run-1", "b", json.RawMessage(`{}`)); !errors.Is(err, ErrFenced) {
		t.Fatalf("every later write must stay fenced, got %v", err)
	}
}

// TestFencingSameTermDoubleClaim forges the outcome of a lost O_EXCL
// race — two processes each confirmed the SAME term, which rename-based
// arbitration cannot prevent once exclusive create stops being atomic —
// and pins that the fence still picks exactly one writer: the on-disk
// record is the authority, and the owner check refuses the other
// process even though the terms are equal.
func TestFencingSameTermDoubleClaim(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// A claims term 1 and confirms.
	lease, ok, err := a.TryAcquireLease("node-a", time.Minute)
	if err != nil || !ok || lease.Term != 1 {
		t.Fatalf("acquire: ok=%v err=%v lease=%+v", ok, err, lease)
	}
	if err := a.Fence("node-a", 1); err != nil {
		t.Fatal(err)
	}
	// B's rename of its own term-1 claim lands *after* A's confirm —
	// the interleaving a dropped O_EXCL permits.  B believes it leads
	// at the same term.
	if err := b.commitLease(CoordLease{Owner: "node-b", Term: 1, Expires: time.Now().Add(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Fence("node-b", 1); err != nil {
		t.Fatal(err)
	}

	// Only the process the on-disk record names can write; the term
	// comparison alone would let BOTH through.
	if err := b.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatalf("on-disk owner's write: %v", err)
	}
	if err := a.Begin("run-2", json.RawMessage(`{}`), time.Now()); !errors.Is(err, ErrFenced) {
		t.Fatalf("displaced same-term claimant's write: %v, want ErrFenced", err)
	}
}

// TestFencingBrokenExclusiveRace races two claimants whose exclusive
// creates dropped O_EXCL, under -race, and asserts the system invariant
// the fence restores: whatever the interleaving did to the claim files,
// at most one handle can mutate the store afterwards — the one the
// on-disk lease names.
func TestFencingBrokenExclusiveRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			open := func(dir string) *SegmentStore {
				s, err := OpenSegment(dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				s.leaseFS.fsio = &nfsIO{brokenExcl: true}
				return s
			}
			// Both renames can race such that neither confirm sees its own
			// record — a livelock the poll loop resolves in production.  Such
			// a race is rerun on a fresh directory, each claimant starting
			// after a random delay of up to 10ms: a claim's open, sync and
			// rename take milliseconds, so claimants started together tend
			// to repeat the interleaving.
			var a, b *SegmentStore
			var okA, okB bool
			for attempt := 0; !okA && !okB; attempt++ {
				if attempt == 10 {
					t.Fatalf("neither claimant confirmed in %d races", attempt)
				}
				dir := t.TempDir()
				a, b = open(dir), open(dir)
				var wg sync.WaitGroup
				claim := func(s *SegmentStore, owner string, ok *bool) {
					defer wg.Done()
					if attempt > 0 {
						time.Sleep(rand.N(10 * time.Millisecond))
					}
					_, *ok, _ = s.TryAcquireLease(owner, time.Minute)
				}
				wg.Add(2)
				go claim(a, "node-a", &okA)
				go claim(b, "node-b", &okB)
				wg.Wait()
			}

			// Each believer arms its fence, as promotion would.
			cur, ok, err := b.ReadLease()
			if err != nil || !ok {
				t.Fatalf("lease after race: ok=%v err=%v", ok, err)
			}
			writers := 0
			for id, s := range map[string]*SegmentStore{"node-a": a, "node-b": b} {
				believed := (id == "node-a" && okA) || (id == "node-b" && okB)
				if !believed {
					continue
				}
				if err := s.Fence(id, 1); err != nil {
					t.Fatal(err)
				}
				err := s.Begin("run-"+id, json.RawMessage(`{}`), time.Now())
				switch {
				case err == nil:
					writers++
					if cur.Owner != id {
						t.Fatalf("%s wrote but the lease names %s", id, cur.Owner)
					}
				case errors.Is(err, ErrFenced):
					if cur.Owner == id {
						t.Fatalf("%s is the on-disk owner yet was fenced", id)
					}
				default:
					t.Fatalf("%s Begin: %v", id, err)
				}
			}
			if writers > 1 {
				t.Fatalf("%d writers allowed after a same-term race, want at most 1", writers)
			}
		})
	}
}
