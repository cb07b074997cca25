// Package resultcache is a content-addressed cache of serialized
// experiment results with single-flight admission.  Keys are canonical
// content hashes (the engine derives them from everything that
// determines a result's bytes: experiment, sample schedule, seed, engine
// version), values are opaque byte slices — the cache never interprets
// what it stores, which keeps the dependency arrow pointing from the
// engine to the cache.
//
// The cache has two layers: a bounded in-memory LRU, and an optional
// Persist backend (internal/runstore implements it as cache/<key>.json
// files) so deduplication survives restarts.  Admission is single-
// flight: the first requester of a missing key becomes its *leader* and
// must settle the key with Fulfill or Abandon; concurrent requesters of
// the same key become *followers* and are called back with the leader's
// outcome instead of executing the work again.  That is what makes "two
// identical runs submitted concurrently execute once" a structural
// guarantee rather than a race.
package resultcache

import (
	"sync"

	"repro/internal/metrics"
)

// State classifies an Acquire outcome.
type State int

const (
	// Hit: the value was returned; no execution is needed.
	Hit State = iota
	// Leader: the key is absent and this caller now owns its in-flight
	// slot.  Execute the work, then Fulfill or Abandon the key —
	// followers are blocked on that settlement.
	Leader
	// Following: another caller is already leading this key; the
	// follower callback passed to Acquire fires when the leader settles.
	Following
)

// Sources reported on hits (and recorded as cache provenance by the
// engine).
const (
	SourceMemory       = "memory"       // served from the in-memory LRU
	SourceStore        = "store"        // served from the persistent layer
	SourceSingleflight = "singleflight" // delivered by a concurrent leader
)

// Persist is the optional durable layer.  *runstore.SegmentStore implements it.
// Implementations must be safe for concurrent use; Get misses return
// (nil, false).
type Persist interface {
	CacheGet(key string) ([]byte, bool)
	CachePut(key string, data []byte) error
}

// Options configures a Cache.
type Options struct {
	// MaxEntries bounds the in-memory layer (default 256; the persistent
	// layer is unbounded here and swept by the server's retention GC).
	MaxEntries int
	// MaxBytes bounds the in-memory layer's total value bytes (default
	// 64 MiB).
	MaxBytes int64
	// Persist, when non-nil, backs the memory layer with durable
	// storage: misses fall through to it and Fulfill writes through.
	Persist Persist
	// Registry receives the cache's metrics; nil creates a private one.
	Registry *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 256
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 20
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	return o
}

// entry is one committed value with its LRU bookkeeping.
type entry struct {
	key        string
	data       []byte
	prev, next *entry // LRU list; head = most recent
}

// flight is one in-flight key: the leader is implicit (whoever got
// State Leader), followers queue here until settlement.
type flight struct {
	followers []func(data []byte, ok bool)
}

// cacheMetrics are the cache's instruments.
type cacheMetrics struct {
	hits      *metrics.Counter // by source
	misses    *metrics.Counter
	evictions *metrics.Counter
	merged    *metrics.Counter // followers absorbed by single-flight
	puts      *metrics.Counter
	entries   *metrics.Gauge
	bytes     *metrics.Gauge
}

func newCacheMetrics(r *metrics.Registry) *cacheMetrics {
	return &cacheMetrics{
		hits:      r.Counter("wmm_resultcache_hits_total", "Result-cache hits, by source (memory/store).", "source"),
		misses:    r.Counter("wmm_resultcache_misses_total", "Result-cache misses (a leader was appointed to execute)."),
		evictions: r.Counter("wmm_resultcache_evictions_total", "Entries evicted from the in-memory result cache by its LRU bound."),
		merged:    r.Counter("wmm_resultcache_singleflight_merged_total", "Requests absorbed as followers of an in-flight identical request."),
		puts:      r.Counter("wmm_resultcache_stores_total", "Results committed to the cache by leaders."),
		entries:   r.Gauge("wmm_resultcache_entries", "Entries resident in the in-memory result cache."),
		bytes:     r.Gauge("wmm_resultcache_bytes", "Value bytes resident in the in-memory result cache."),
	}
}

// Cache is the two-layer content-addressed cache.  Safe for concurrent
// use.
type Cache struct {
	opt Options
	met *cacheMetrics

	mu       sync.Mutex
	entries  map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	bytes    int64
	inflight map[string]*flight

	// plain counters behind Stats (the metrics registry aggregates by
	// label and has no cheap "sum over labels" read-back)
	hits, misses, evicted, mergedN int64
}

// New builds a cache.
func New(o Options) *Cache {
	o = o.withDefaults()
	return &Cache{
		opt:      o,
		met:      newCacheMetrics(o.Registry),
		entries:  map[string]*entry{},
		inflight: map[string]*flight{},
	}
}

// Stats is a point-in-time snapshot for tests and diagnostics.
type Stats struct {
	Entries   int
	Bytes     int64
	Inflight  int
	Hits      int64
	Misses    int64
	Evictions int64
	Merged    int64
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Inflight:  len(c.inflight),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Merged:    c.mergedN,
	}
}

// Acquire resolves a key atomically into one of three states:
//
//   - Hit: data holds the cached value and source says which layer
//     served it (SourceMemory or SourceStore);
//   - Leader: the caller must execute the work and settle the key with
//     Fulfill(key, data) on success or Abandon(key) on failure;
//   - Following: follower will be invoked exactly once when the current
//     leader settles — with (data, true) on Fulfill, (nil, false) on
//     Abandon.  follower runs on the leader's goroutine; do not block.
//
// follower may be nil only if the caller can guarantee the key is not
// in flight (it is invoked for the Following state alone).
func (c *Cache) Acquire(key string, follower func(data []byte, ok bool)) (data []byte, source string, state State) {
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok {
		c.touchLocked(ent)
		c.hits++
		c.mu.Unlock()
		c.met.hits.Inc(SourceMemory)
		return ent.data, SourceMemory, Hit
	}
	if fl, ok := c.inflight[key]; ok {
		fl.followers = append(fl.followers, follower)
		c.mergedN++
		c.mu.Unlock()
		c.met.merged.Inc()
		return nil, "", Following
	}
	// Persistent layer, probed while holding the admission lock: entries
	// are small and the atomicity is what prevents two concurrent
	// requesters from both missing and both executing.
	if p := c.opt.Persist; p != nil {
		if data, ok := p.CacheGet(key); ok {
			c.insertLocked(key, data)
			c.hits++
			c.mu.Unlock()
			c.met.hits.Inc(SourceStore)
			return data, SourceStore, Hit
		}
	}
	c.inflight[key] = &flight{}
	c.misses++
	c.mu.Unlock()
	c.met.misses.Inc()
	return nil, "", Leader
}

// Fulfill settles a led key with its computed value: the value is
// committed to both layers and every follower is called back with it.
// Only the caller that got State Leader for the key may call it.
func (c *Cache) Fulfill(key string, data []byte) {
	c.mu.Lock()
	fl := c.inflight[key]
	delete(c.inflight, key)
	c.insertLocked(key, data)
	c.mu.Unlock()
	c.met.puts.Inc()
	if p := c.opt.Persist; p != nil {
		// Write-through is best-effort: a failed put degrades restart
		// dedupe, never the run.
		_ = p.CachePut(key, data)
	}
	if fl != nil {
		for _, f := range fl.followers {
			if f != nil {
				f(data, true)
			}
		}
	}
}

// Abandon settles a led key without a value (execution failed or was
// cancelled): followers are called back with ok=false and must arrange
// their own execution.  The key becomes acquirable again.
func (c *Cache) Abandon(key string) {
	c.mu.Lock()
	fl := c.inflight[key]
	delete(c.inflight, key)
	c.mu.Unlock()
	if fl != nil {
		for _, f := range fl.followers {
			if f != nil {
				f(nil, false)
			}
		}
	}
}

// Delete drops a committed entry from the in-memory layer (the
// poisoned-entry escape: a value that fails to decode is removed so the
// next Acquire leads a fresh execution).  The persistent copy, if any,
// is left to the retention sweep.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[key]; ok {
		c.unlinkLocked(ent)
		delete(c.entries, key)
		c.bytes -= int64(len(ent.data))
		c.met.entries.Set(float64(len(c.entries)))
		c.met.bytes.Set(float64(c.bytes))
	}
}

// insertLocked commits a value and enforces the LRU bounds; mu held.
func (c *Cache) insertLocked(key string, data []byte) {
	if old, ok := c.entries[key]; ok {
		c.bytes += int64(len(data)) - int64(len(old.data))
		old.data = data
		c.touchLocked(old)
	} else {
		ent := &entry{key: key, data: data}
		c.entries[key] = ent
		c.bytes += int64(len(data))
		c.linkFrontLocked(ent)
	}
	for (len(c.entries) > c.opt.MaxEntries || c.bytes > c.opt.MaxBytes) && c.tail != nil && c.tail != c.entries[key] {
		victim := c.tail
		c.unlinkLocked(victim)
		delete(c.entries, victim.key)
		c.bytes -= int64(len(victim.data))
		c.evicted++
		c.met.evictions.Inc()
	}
	c.met.entries.Set(float64(len(c.entries)))
	c.met.bytes.Set(float64(c.bytes))
}

// touchLocked moves an entry to the LRU front; mu held.
func (c *Cache) touchLocked(ent *entry) {
	if c.head == ent {
		return
	}
	c.unlinkLocked(ent)
	c.linkFrontLocked(ent)
}

func (c *Cache) linkFrontLocked(ent *entry) {
	ent.prev = nil
	ent.next = c.head
	if c.head != nil {
		c.head.prev = ent
	}
	c.head = ent
	if c.tail == nil {
		c.tail = ent
	}
}

func (c *Cache) unlinkLocked(ent *entry) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else if c.head == ent {
		c.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else if c.tail == ent {
		c.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}
