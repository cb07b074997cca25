package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// KindSegment names the segment store, the only Storage backend.
const KindSegment = "segment"

// Storage is the persistence contract the coordinator runs on, and
// *SegmentStore implements it.  All methods must be safe for concurrent
// use, every mutation must be durable when it returns, and replay must
// tolerate a torn tail — conformance_test.go pins the observable
// behaviour.
type Storage interface {
	// Ping probes that the store is writable (backs GET /readyz).
	Ping() error
	// Close releases the handle's open segment.
	Close() error

	// Begin records a run's submission: its identity and spec.
	Begin(id string, spec json.RawMessage, at time.Time) error
	// Checkpoint records one completed experiment; re-checkpointing the
	// same experiment appends a newer record and replay keeps the last.
	Checkpoint(id, experiment string, result json.RawMessage) error
	// Assign records the dispatch of one experiment job to a worker.
	Assign(id, experiment, worker string) error
	// End records a run's terminal state.
	End(id, state, errMsg string) error
	// Delete removes a run from replay (finished-run DELETE, GC).
	Delete(id string) error
	// Load replays every run, in run-ID order (run-2 before run-10).
	Load() ([]*RunRecord, error)

	// The content-addressed result-cache layer (resultcache.Persist).
	CacheGet(key string) ([]byte, bool)
	CachePut(key string, data []byte) error
	CacheSweep(olderThan time.Time) int

	// The coordinator-lease layer used for HA failover (internal/ha).
	ReadLease() (CoordLease, bool, error)
	TryAcquireLease(owner string, ttl time.Duration) (CoordLease, bool, error)
	RenewLease(owner string, term int64, ttl time.Duration) (CoordLease, bool, error)
	ReleaseLease(owner string, term int64) error
	// Fence arms the lease term as an enforced fencing token: after
	// Fence(owner, term), every mutation above (plus segment
	// compaction) re-validates against the on-disk lease under the same
	// lock as its commit and refuses with an error wrapping ErrFenced
	// once the lease names a newer claim.  Reads are never fenced.
	// Fence("", 0) disarms.
	Fence(owner string, term int64) error
}

// OpenBackend opens the named storage backend rooted at dir.
// KindSegment is the only kind.
func OpenBackend(kind, dir string) (Storage, error) {
	if kind != KindSegment {
		return nil, fmt.Errorf("runstore: unknown store backend %q (want %q)", kind, KindSegment)
	}
	return OpenSegment(dir)
}

// validateRunID rejects identifiers that would escape the store
// directory or collide with backend-internal files.
func validateRunID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return fmt.Errorf("runstore: invalid run id %q", id)
	}
	return nil
}

// commitFile durably replaces path with data: write to a temp file in
// the same directory, fsync, rename over the target, then fsync the
// directory so the rename itself survives a crash.  Readers see the old
// contents or the new, never a torn mix.
func commitFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".commit-*")
	if err != nil {
		return fmt.Errorf("runstore: commit temp: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("runstore: commit write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("runstore: commit sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstore: commit close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runstore: commit rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory (best effort — not every filesystem
// supports it, and a failure only widens the crash window that the
// torn-tail tolerance already covers).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// sortRuns orders replayed runs by ID with numeric-friendly comparison
// (run-2 before run-10).
func sortRuns(runs []*RunRecord) {
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i].ID, runs[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
}
