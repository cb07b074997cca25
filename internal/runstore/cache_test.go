package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func cacheStore(t *testing.T) *SegmentStore {
	t.Helper()
	s, err := OpenSegment(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCacheRoundtrip(t *testing.T) {
	s := cacheStore(t)
	key := strings.Repeat("ab12", 16) // sha256-hex shaped
	if _, ok := s.CacheGet(key); ok {
		t.Fatal("get before put reported a hit")
	}
	if err := s.CachePut(key, []byte(`{"experiment":"fig4"}`)); err != nil {
		t.Fatal(err)
	}
	data, ok := s.CacheGet(key)
	if !ok || string(data) != `{"experiment":"fig4"}` {
		t.Fatalf("CacheGet = (%q, %v), want the stored bytes", data, ok)
	}
	// Overwrite is atomic replace, not append.
	if err := s.CachePut(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.CacheGet(key); string(data) != "v2" {
		t.Fatalf("after overwrite = %q, want v2", data)
	}
}

// TestCacheKeyValidation is the traversal guard: keys are engine content
// hashes (lowercase hex), and anything else — especially path
// metacharacters — must be rejected, never turned into a file path.
func TestCacheKeyValidation(t *testing.T) {
	s := cacheStore(t)
	for _, key := range []string{
		"",
		"../escape",
		"..",
		"a/b",
		"ABCDEF",      // uppercase hex is not canonical
		"0123456789g", // non-hex
		strings.Repeat("a", 129),
	} {
		if err := s.CachePut(key, []byte("x")); err == nil {
			t.Errorf("CachePut(%q) accepted an invalid key", key)
		}
		if _, ok := s.CacheGet(key); ok {
			t.Errorf("CacheGet(%q) hit on an invalid key", key)
		}
	}
}

func TestCacheSweep(t *testing.T) {
	s := cacheStore(t)
	if err := s.CachePut("aaaa", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.CachePut("bbbb", []byte("new")); err != nil {
		t.Fatal(err)
	}
	// Age the first entry past the cutoff.
	old, err := s.cachePath("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}

	if n := s.CacheSweep(time.Now().Add(-time.Hour)); n != 1 {
		t.Fatalf("CacheSweep removed %d entries, want 1", n)
	}
	if _, ok := s.CacheGet("aaaa"); ok {
		t.Error("stale entry survived the sweep")
	}
	if _, ok := s.CacheGet("bbbb"); !ok {
		t.Error("fresh entry was swept")
	}
}

func TestCacheSweepIgnoresStrays(t *testing.T) {
	s := cacheStore(t)
	if err := s.CachePut("cccc", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A stray non-.json file in cache/ must not be touched.
	stray := filepath.Join(s.dir, cacheDir, "README")
	if err := os.WriteFile(stray, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stray, stale, stale); err != nil {
		t.Fatal(err)
	}
	if n := s.CacheSweep(time.Now()); n != 1 {
		t.Fatalf("sweep removed %d, want 1 (the .json entry only)", n)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("stray file removed by sweep: %v", err)
	}
}
