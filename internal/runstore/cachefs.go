package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Content-addressed result cache layer.
//
// Alongside run records, a store holds a flat namespace of
// content-addressed cache entries under dir/cache/: one <key>.json file
// per entry, where the key is the engine's canonical content hash of
// everything that determines the result's bytes.  The layer is
// deliberately dumb — opaque bytes in, opaque bytes out — so the engine
// owns the hash definition and the store owns only durability.  Writes
// go through a temp file + rename, so a crash mid-put never leaves a
// torn entry (a reader sees the old file or the new one, never half).

// cacheDir is the store subdirectory holding cache entries.
const cacheDir = "cache"

// cacheFS implements the cache layer over a store root directory.  The
// segment store embeds it; entries live in their own subdirectory, apart
// from the run records.
type cacheFS struct {
	root string
}

// cachePath validates a cache key (lowercase hex, as produced by the
// engine's content hash) and returns its file path.  Validation is the
// traversal guard: keys come from request-derived hashes, but defence in
// depth is cheap.
func (c cacheFS) cachePath(key string) (string, error) {
	if key == "" || len(key) > 128 {
		return "", fmt.Errorf("runstore: invalid cache key %q", key)
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return "", fmt.Errorf("runstore: invalid cache key %q", key)
		}
	}
	return filepath.Join(c.root, cacheDir, key+".json"), nil
}

// CacheGet reads a cache entry, reporting false on any miss (absent,
// unreadable, invalid key).  It satisfies resultcache.Persist.
func (c cacheFS) CacheGet(key string) ([]byte, bool) {
	path, err := c.cachePath(key)
	if err != nil {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	return data, true
}

// CachePut durably writes a cache entry (see commitFile).  It satisfies
// resultcache.Persist.
func (c cacheFS) CachePut(key string, data []byte) error {
	path, err := c.cachePath(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runstore: create cache dir: %w", err)
	}
	return commitFile(path, data)
}

// CacheSweep removes cache entries not modified since the cutoff,
// returning how many were removed.  The server's retention GC calls it
// so the persistent cache — unlike the pre-PR calibration cache and
// litmus catalogue — cannot grow without bound on a long-lived server.
func (c cacheFS) CacheSweep(olderThan time.Time) int {
	dir := filepath.Join(c.root, cacheDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		info, err := ent.Info()
		if err != nil || !info.ModTime().Before(olderThan) {
			continue
		}
		if os.Remove(filepath.Join(dir, ent.Name())) == nil {
			removed++
		}
	}
	return removed
}
