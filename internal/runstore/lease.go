package runstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Coordinator lease layer.
//
// HA failover (internal/ha) elects the coordinator through a single
// lease record in the store: `coordlease.json`, holding the current
// owner, a monotonically increasing term, the expiry, and the TTL the
// holder was configured with.  The protocol is designed for a few wmmd
// processes sharing one store directory (local disk or a shared
// filesystem), with no locking primitive beyond what POSIX rename and
// O_EXCL give us:
//
//   - Acquire: read the record.  A live foreign lease — or one inside a
//     grace window of the *holder's* recorded TTL past its expiry —
//     blocks the claim.  Beyond the grace window, claim term+1 by
//     creating `coordlease.claim-<term>` with O_EXCL (the arbiter when
//     two standbys race: exactly one create succeeds), write the new
//     record into it, fsync, and rename it over `coordlease.json`.
//     Then re-read: only the record on disk says who won.
//   - Renew: verify the record still names this owner and term and has
//     not expired, rewrite it with a fresh expiry (temp+fsync+rename),
//     and re-read to confirm.  An expired lease cannot be renewed — the
//     deposed owner must re-acquire, which forces it through the grace
//     window like everyone else.
//   - Release: remove the record iff it still names this owner and term.
//
// Split-brain defence: the election alone cannot eliminate the window
// in which a stalled ex-leader's write lands after a rival's claim —
// the re-read confirm plus the expiry check shrink it to a single write
// syscall, no further.  So the lease term is *enforced* as a fencing
// token by storage itself: a promoted coordinator arms the fence with
// Fence(owner, term), and from then on every mutation (Begin,
// Checkpoint, Assign, End, Delete, CachePut, segment compaction)
// re-reads this record under the same lock as its commit and refuses
// with ErrFenced when the record names a newer term — or the same term
// under a different owner, which is what a lost O_EXCL race looks like.
// A fenced write means another process coordinates: the caller must
// stop mutating immediately (wmmd exits 3, exactly as for a failed
// renewal).  Residual caveat: the fence is only as fresh as a lease
// read.  On NFS-style filesystems with delayed visibility (attribute
// caching, broken close-to-open), a stalled writer can act on a stale
// lease for up to the client's caching delay — mount shared stores with
// attribute caching disabled (actimeo=0) or accept that bounded
// window.  docs/ROBUSTNESS.md spells out the full argument.

// leaseFile is the lease record's name inside the store directory.
const leaseFile = "coordlease.json"

// ErrFenced reports a store mutation refused by the fencing check: the
// on-disk coordinator lease names a newer claim than the one this
// handle was promoted under, so another process coordinates.  Match
// with errors.Is; the caller must stop mutating the store immediately.
var ErrFenced = errors.New("runstore: store mutation fenced by a newer coordinator lease")

// CoordLease is the on-disk coordinator-lease record.
type CoordLease struct {
	Owner   string    `json:"owner"`
	Term    int64     `json:"term"`
	Expires time.Time `json:"expires"`
	// TTLMs is the TTL the holder acquired or last renewed with, in
	// milliseconds.  It sizes the takeover grace window: a rival waits
	// one full *holder* TTL past expiry, regardless of its own -ha-ttl.
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// ttl reports the TTL the lease was taken with, for sizing the grace
// window; fallback covers records written before TTLMs existed.
func (c CoordLease) ttl(fallback time.Duration) time.Duration {
	if c.TTLMs > 0 {
		return time.Duration(c.TTLMs) * time.Millisecond
	}
	return fallback
}

// leaseIO is the syscall seam the lease layer reads and claims through.
// Production uses osLeaseIO; tests substitute implementations with
// NFS-style weaknesses (stale reads, non-atomic exclusive creates) to
// prove where the fence holds and where only mount options can.
type leaseIO interface {
	ReadFile(path string) ([]byte, error)
	OpenExclusive(path string) (*os.File, error)
}

type osLeaseIO struct{}

func (osLeaseIO) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (osLeaseIO) OpenExclusive(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

// leaseFS implements the lease layer over a store root directory.
type leaseFS struct {
	root string
	mu   sync.Mutex
	// fsio, when non-nil, replaces the real filesystem calls (tests
	// only — see leaseIO).
	fsio leaseIO
	// fenceOwner/fenceTerm are the armed fencing token; term 0 means
	// unfenced (no coordinator promoted through this handle).
	fenceOwner string
	fenceTerm  int64
}

func (l *leaseFS) leasePath() string { return filepath.Join(l.root, leaseFile) }

func (l *leaseFS) io() leaseIO {
	if l.fsio != nil {
		return l.fsio
	}
	return osLeaseIO{}
}

// Fence arms the storage fence with the lease this handle's coordinator
// was promoted under: every subsequent mutation re-reads the on-disk
// lease under the same lock as its commit and refuses with ErrFenced
// when the record names a newer term — or the same term held by a
// different owner, the signature of a lost claim race.  Reads are never
// fenced.  Fence("", 0) disarms (clean shutdown, tests).
func (l *leaseFS) Fence(owner string, term int64) error {
	if term < 0 {
		return fmt.Errorf("runstore: fence term must be >= 0, got %d", term)
	}
	if term > 0 && owner == "" {
		return fmt.Errorf("runstore: fence needs an owner for term %d", term)
	}
	l.mu.Lock()
	l.fenceOwner, l.fenceTerm = owner, term
	l.mu.Unlock()
	return nil
}

// checkFence validates the armed fencing token against the on-disk
// lease.  Called by every store mutation at its commit point, while
// holding the store's own lock — so a takeover observed here is
// observed before the commit, not after.  An unreadable lease fails
// closed (the error is returned, the mutation does not proceed); an
// absent or torn lease blocks nobody, matching readLease.
func (l *leaseFS) checkFence() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fenceTerm == 0 {
		return nil
	}
	cur, ok, err := l.readLease()
	if err != nil {
		return fmt.Errorf("runstore: fence check: %w", err)
	}
	if !ok {
		return nil
	}
	if cur.Term > l.fenceTerm || (cur.Term == l.fenceTerm && cur.Owner != l.fenceOwner) {
		return fmt.Errorf("%w (armed term %d owner %s; lease names term %d owner %s)",
			ErrFenced, l.fenceTerm, l.fenceOwner, cur.Term, cur.Owner)
	}
	return nil
}

// readLease reads the current record.  A missing or unparseable file
// reports absent — a torn lease blocks nobody, it just gets reclaimed.
func (l *leaseFS) readLease() (CoordLease, bool, error) {
	data, err := l.io().ReadFile(l.leasePath())
	if err != nil {
		if os.IsNotExist(err) {
			return CoordLease{}, false, nil
		}
		return CoordLease{}, false, fmt.Errorf("runstore: read lease: %w", err)
	}
	var c CoordLease
	if err := json.Unmarshal(data, &c); err != nil || c.Owner == "" {
		return CoordLease{}, false, nil
	}
	return c, true, nil
}

// ReadLease reports the current coordinator lease, if any.
func (l *leaseFS) ReadLease() (CoordLease, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readLease()
}

// TryAcquireLease attempts to take the coordinator lease for owner with
// the given TTL.  It returns the resulting record and whether this
// owner now holds it.  Holding the lease already refreshes it in place;
// a foreign lease blocks until one full holder-TTL past its expiry (the
// takeover grace window).
func (l *leaseFS) TryAcquireLease(owner string, ttl time.Duration) (CoordLease, bool, error) {
	if owner == "" || ttl <= 0 {
		return CoordLease{}, false, fmt.Errorf("runstore: lease needs an owner and a positive ttl")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	cur, ok, err := l.readLease()
	if err != nil {
		return CoordLease{}, false, err
	}
	if ok && cur.Owner == owner && now.Before(cur.Expires) {
		next := CoordLease{Owner: owner, Term: cur.Term, Expires: now.Add(ttl), TTLMs: ttl.Milliseconds()}
		if err := l.commitLease(next); err != nil {
			return CoordLease{}, false, err
		}
		return l.confirm(owner, next.Term)
	}
	if ok && cur.Owner != owner && now.Before(cur.Expires.Add(cur.ttl(ttl))) {
		// Live, or inside the grace window: the holder gets one full TTL
		// of silence before anyone may take over — the holder's own TTL,
		// which its self-deposal deadline is derived from, not the
		// acquirer's (the processes may run different -ha-ttl).
		return cur, false, nil
	}
	claim := CoordLease{Owner: owner, Term: cur.Term + 1, Expires: now.Add(ttl), TTLMs: ttl.Milliseconds()}
	claimPath := filepath.Join(l.root, fmt.Sprintf("coordlease.claim-%d", claim.Term))
	f, err := l.io().OpenExclusive(claimPath)
	if err != nil {
		if os.IsExist(err) {
			// A rival claimed this term first.  If the claim file is
			// crash debris (no rename followed for two TTLs), clear it so
			// the next attempt is not blocked forever.
			if info, statErr := os.Stat(claimPath); statErr == nil && now.Sub(info.ModTime()) > 2*ttl {
				os.Remove(claimPath)
			}
			return cur, false, nil
		}
		return CoordLease{}, false, fmt.Errorf("runstore: lease claim: %w", err)
	}
	data, _ := json.Marshal(claim)
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(claimPath)
		return CoordLease{}, false, fmt.Errorf("runstore: lease claim write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(claimPath)
		return CoordLease{}, false, fmt.Errorf("runstore: lease claim sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(claimPath)
		return CoordLease{}, false, fmt.Errorf("runstore: lease claim close: %w", err)
	}
	if err := os.Rename(claimPath, l.leasePath()); err != nil {
		os.Remove(claimPath)
		return CoordLease{}, false, fmt.Errorf("runstore: lease claim rename: %w", err)
	}
	syncDir(l.root)
	return l.confirm(owner, claim.Term)
}

// RenewLease extends the lease iff it still names this owner and term
// and has not expired.  A false return with a nil error means deposed:
// the caller must stop acting as coordinator immediately.
func (l *leaseFS) RenewLease(owner string, term int64, ttl time.Duration) (CoordLease, bool, error) {
	if owner == "" || ttl <= 0 {
		return CoordLease{}, false, fmt.Errorf("runstore: lease needs an owner and a positive ttl")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	cur, ok, err := l.readLease()
	if err != nil {
		return CoordLease{}, false, err
	}
	if !ok || cur.Owner != owner || cur.Term != term || now.After(cur.Expires) {
		// Deposed, or too late: an expired lease is never renewed in
		// place, the owner must go back through acquisition.
		return cur, false, nil
	}
	next := CoordLease{Owner: owner, Term: term, Expires: now.Add(ttl), TTLMs: ttl.Milliseconds()}
	if err := l.commitLease(next); err != nil {
		return CoordLease{}, false, err
	}
	return l.confirm(owner, term)
}

// ReleaseLease surrenders the lease iff it still names this owner and
// term, letting a standby take over without waiting out the TTL.  The
// record stays on disk with a zeroed expiry rather than being removed:
// terms must grow monotonically across releases for the term number to
// work as a fencing token.
func (l *leaseFS) ReleaseLease(owner string, term int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, ok, err := l.readLease()
	if err != nil {
		return err
	}
	if !ok || cur.Owner != owner || cur.Term != term {
		return nil
	}
	return l.commitLease(CoordLease{Owner: owner, Term: term})
}

// commitLease durably replaces the lease record.
func (l *leaseFS) commitLease(c CoordLease) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("runstore: marshal lease: %w", err)
	}
	return commitFile(l.leasePath(), append(data, '\n'))
}

// confirm re-reads the record after a write: with rename-based commits,
// only the file on disk says which writer won a race.
func (l *leaseFS) confirm(owner string, term int64) (CoordLease, bool, error) {
	got, ok, err := l.readLease()
	if err != nil {
		return CoordLease{}, false, err
	}
	if !ok || got.Owner != owner || got.Term != term {
		return got, false, nil
	}
	return got, true, nil
}
