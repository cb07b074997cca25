package runstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Claim-file debris handling: `coordlease.claim-N` is the O_EXCL
// arbiter between racing standbys, normally renamed over the lease
// within microseconds.  A crash between create and rename leaves it
// behind, and it must block rivals only while it could still be a live
// race — the 2*ttl ModTime sweep.

// TestLeaseClaimDebrisSweep pins that stale crash debris eventually
// unblocks acquisition: the first attempt past 2*ttl removes the
// debris, the next claims the term.
func TestLeaseClaimDebrisSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const ttl = 200 * time.Millisecond

	// A standby crashed mid-claim: claim-1 exists, no lease was ever
	// committed.
	claim := filepath.Join(dir, "coordlease.claim-1")
	if err := os.WriteFile(claim, []byte(`{"owner":"crashed","term":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh debris blocks: the race might still be in flight.
	if _, ok, err := s.TryAcquireLease("survivor", ttl); err != nil || ok {
		t.Fatalf("acquire over fresh debris: ok=%v err=%v", ok, err)
	}
	if _, statErr := os.Stat(claim); statErr != nil {
		t.Fatalf("fresh debris swept too early: %v", statErr)
	}

	// Age the debris past the 2*ttl deadline without waiting it out.
	stale := time.Now().Add(-2*ttl - time.Second)
	if err := os.Chtimes(claim, stale, stale); err != nil {
		t.Fatal(err)
	}
	// The sweep happens on the blocked attempt (remove), the term is
	// claimable on the next.
	if _, ok, err := s.TryAcquireLease("survivor", ttl); err != nil || ok {
		t.Fatalf("sweeping attempt: ok=%v err=%v", ok, err)
	}
	if _, statErr := os.Stat(claim); !os.IsNotExist(statErr) {
		t.Fatalf("stale debris not swept: %v", statErr)
	}
	lease, ok, err := s.TryAcquireLease("survivor", ttl)
	if err != nil || !ok {
		t.Fatalf("acquire after sweep: ok=%v err=%v", ok, err)
	}
	if lease.Owner != "survivor" || lease.Term != 1 {
		t.Fatalf("acquire after sweep: %+v", lease)
	}
}

// TestLeaseClaimFreshRivalWins pins the other half of the debris rule:
// a claim file from a rival that is *still completing* must keep
// blocking, and once the rival's rename lands, its lease wins.
func TestLeaseClaimFreshRivalWins(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const ttl = 200 * time.Millisecond

	// A rival is mid-claim: its claim file exists with a fresh ModTime.
	rivalLease := CoordLease{Owner: "rival", Term: 1, Expires: time.Now().Add(ttl), TTLMs: ttl.Milliseconds()}
	data, _ := json.Marshal(rivalLease)
	claim := filepath.Join(dir, "coordlease.claim-1")
	if err := os.WriteFile(claim, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.TryAcquireLease("latecomer", ttl); ok {
		t.Fatal("latecomer claimed over an in-flight rival claim")
	}

	// The rival's rename lands — exactly what TryAcquireLease does
	// after its O_EXCL create succeeds.
	if err := os.Rename(claim, filepath.Join(dir, leaseFile)); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.TryAcquireLease("latecomer", ttl)
	if ok {
		t.Fatalf("latecomer claimed over the rival's live lease: %+v", got)
	}
	if got.Owner != "rival" || got.Term != 1 {
		t.Fatalf("lease after rival completion: %+v", got)
	}
}

// TestFenceWithoutLease pins the fence's absent-lease semantics: an
// armed handle with no lease on disk writes freely (a torn or deleted
// lease blocks nobody, matching readLease), and the fence trips the
// moment a rival record appears.
func TestFenceWithoutLease(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Fence("ghost", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("run-1", json.RawMessage(`{}`), time.Now()); err != nil {
		t.Fatalf("Begin with no lease on disk: %v", err)
	}
	// A rival claim at a newer term lands on disk.
	if err := s.commitLease(CoordLease{Owner: "rival", Term: 4, Expires: time.Now().Add(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if err := s.End("run-1", "done", ""); !errors.Is(err, ErrFenced) {
		t.Fatalf("End after rival claim: %v, want ErrFenced", err)
	}
}
