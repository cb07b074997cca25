package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/javabench"
	"repro/wmm/client"
)

// shaHex hashes a ResultKey pre-image the way ResultKey does.
func shaHex(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// --- Content hash ---------------------------------------------------------

func TestResultKeyDiscriminates(t *testing.T) {
	base := RunOptions{Samples: 2, Seed: 3, Short: true}
	key := ResultKey("fig4", base)
	if len(key) != 64 || strings.ToLower(key) != key {
		t.Fatalf("key %q is not lowercase sha256 hex", key)
	}
	variants := map[string]string{
		"experiment": ResultKey("txt3", base),
		"samples":    ResultKey("fig4", RunOptions{Samples: 3, Seed: 3, Short: true}),
		"seed":       ResultKey("fig4", RunOptions{Samples: 2, Seed: 4, Short: true}),
		"short":      ResultKey("fig4", RunOptions{Samples: 2, Seed: 3, Short: false}),
		"adaptive":   ResultKey("fig4", RunOptions{Samples: 2, Seed: 3, Short: true, Adaptive: &stats.StopRule{RelPrecision: 0.05}}),
	}
	for dim, k := range variants {
		if k == key {
			t.Errorf("changing %s did not change the content hash", dim)
		}
	}
	// Irrelevant execution-shape fields must NOT participate: where and
	// how wide a job runs never changes its bytes.
	same := RunOptions{Samples: 2, Seed: 3, Short: true, Parallel: 7}
	if ResultKey("fig4", same) != key {
		t.Error("parallelism changed the content hash")
	}
}

// TestResultKeyAdaptiveNormalised: a defaulted rule and its explicit
// spelling are the same measurement, so they must share a cache entry.
func TestResultKeyAdaptiveNormalised(t *testing.T) {
	defaulted := RunOptions{Seed: 3, Adaptive: &stats.StopRule{RelPrecision: 0.05}}
	explicit := RunOptions{Seed: 3, Adaptive: &stats.StopRule{
		RelPrecision: 0.05,
		MinSamples:   stats.DefaultMinSamples,
		MaxSamples:   stats.DefaultMaxSamples,
	}}
	if ResultKey("fig4", defaulted) != ResultKey("fig4", explicit) {
		t.Fatal("defaulted and explicit adaptive rules hash differently")
	}
}

// TestResultKeyVersioned: the engine version is part of the hash input,
// so bumping it orphans (rather than serves) every stale entry.  The
// guard recomputes the key under a hypothetical older version and
// checks it cannot collide with the current one.
func TestResultKeyVersioned(t *testing.T) {
	if !strings.Contains(EngineVersion, "v") {
		t.Fatalf("EngineVersion %q has no version discriminator", EngineVersion)
	}
	key := ResultKey("fig4", RunOptions{Seed: 3})
	// Same spec hashed under a different version prefix (the exact
	// pre-image format is ResultKey's; this mirrors it byte for byte).
	older := shaHex("wmm-engine-v0|exp=fig4|samples=0|seed=3|short=false")
	if key == older {
		t.Fatal("engine-version bump does not invalidate cache keys")
	}
	if key != shaHex(EngineVersion+"|exp=fig4|samples=0|seed=3|short=false") {
		t.Fatal("ResultKey pre-image drifted from the documented format")
	}
}

// --- Dispatcher integration ----------------------------------------------

func newCachedServer(t *testing.T, persist resultcache.Persist) (*client.Client, *Server, *resultcache.Cache) {
	t.Helper()
	cache := resultcache.New(resultcache.Options{Persist: persist})
	ts, api, eng := newTestServerOpts(t, ServerOptions{
		Parallel: 2,
		Dispatch: &DispatchOptions{Cache: cache},
	})
	_ = eng
	return testClient(ts), api, cache
}

func doneResults(t *testing.T, cl *client.Client, id string) []client.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := cl.WaitRun(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	if st.State != StateDone {
		t.Fatalf("run %s ended %s: %s", id, st.State, st.Error)
	}
	return st.Results
}

// TestDispatchCacheReuse is the tentpole scenario: the same spec
// submitted twice is executed once — the second run is served entirely
// from the result cache, with provenance recorded per experiment and
// canonical JSON byte-identical to the first.
func TestDispatchCacheReuse(t *testing.T) {
	cl, api, cache := newCachedServer(t, nil)
	spec := client.RunSpec{Experiments: []string{"fig4", "txt3"}, Short: true, Samples: 2, Seed: 3, Parallel: 2}

	sub1, err := cl.SubmitRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	first := doneResults(t, cl, sub1.ID)
	for _, r := range first {
		if r.Cache != "" {
			t.Errorf("first run %s has cache provenance %q, want execution", r.Experiment, r.Cache)
		}
	}

	sub2, err := cl.SubmitRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second := doneResults(t, cl, sub2.ID)
	for _, r := range second {
		if r.Cache != resultcache.SourceMemory {
			t.Errorf("second run %s provenance = %q, want %q", r.Experiment, r.Cache, resultcache.SourceMemory)
		}
	}

	// Exactly one execution per distinct job, cache hits for the rest.
	if local := api.disp.met.jobsDone.Value("local"); local != 2 {
		t.Errorf("local executions = %v, want 2", local)
	}
	if cached := api.disp.met.jobsDone.Value("cache"); cached != 2 {
		t.Errorf("cache-resolved jobs = %v, want 2", cached)
	}
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 hits / 2 misses", st)
	}

	// Byte-identity: the cached run's canonical JSON equals the executed
	// run's (provenance and wall time are excluded from canonical form).
	can1, err := cl.CanonicalRun(context.Background(), sub1.ID)
	if err != nil {
		t.Fatal(err)
	}
	can2, err := cl.CanonicalRun(context.Background(), sub2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(can1, can2) {
		t.Error("cached run's canonical JSON differs from the executed run's")
	}
}

// TestDispatchCacheSingleflight submits two identical runs
// concurrently: the cache's single-flight admission must merge them so
// each distinct job executes exactly once, and both runs' canonical
// JSON is byte-identical.  (Run under -race in CI.)
func TestDispatchCacheSingleflight(t *testing.T) {
	cl, api, cache := newCachedServer(t, nil)
	spec := client.RunSpec{Experiments: []string{"fig4", "txt3"}, Short: true, Samples: 2, Seed: 3, Parallel: 2}

	const runs = 2
	ids := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := cl.SubmitRun(context.Background(), spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()

	var canon [][]byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		doneResults(t, cl, id)
		can, err := cl.CanonicalRun(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		canon = append(canon, can)
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Error("concurrent identical runs produced different canonical JSON")
	}

	// Exactly one execution per distinct experiment job, however the
	// races resolved (follower merge or post-commit hit).
	if local := api.disp.met.jobsDone.Value("local"); local != 2 {
		t.Errorf("local executions = %v, want exactly 2 (one per distinct job)", local)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("cache misses = %d, want 2 (each distinct job led once)", st.Misses)
	}
}

// corruptPersist serves garbage for every key: a poisoned persistent
// layer (torn write, version skew) must degrade to execution, never be
// delivered as a result — and a successful execution heals the entry.
type corruptPersist struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (p *corruptPersist) CacheGet(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if data, ok := p.m[key]; ok {
		return data, true
	}
	return []byte("{corrupt"), true
}

func (p *corruptPersist) CachePut(key string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = map[string][]byte{}
	}
	p.m[key] = append([]byte(nil), data...)
	return nil
}

func TestDispatchCachePoisonGuard(t *testing.T) {
	persist := &corruptPersist{}
	cl, api, _ := newCachedServer(t, persist)
	spec := client.RunSpec{Experiments: []string{"fig4"}, Short: true, Samples: 2, Seed: 3}

	sub, err := cl.SubmitRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res := doneResults(t, cl, sub.ID)
	if len(res) != 1 || res[0].Status != StatusOK || res[0].Cache != "" {
		t.Fatalf("poisoned cache entry was not re-executed: %+v", res)
	}
	if local := api.disp.met.jobsDone.Value("local"); local != 1 {
		t.Errorf("local executions = %v, want 1", local)
	}
	// The execution's Fulfill must have overwritten the poisoned entry
	// with decodable bytes.
	key := ResultKey("fig4", RunOptions{Samples: 2, Seed: 3, Short: true})
	data, _ := persist.CacheGet(key)
	var healed Result
	if err := json.Unmarshal(data, &healed); err != nil || healed.Experiment != "fig4" {
		t.Errorf("persisted entry not healed after execution: %q", data)
	}
}

// TestNoCacheEscapeHatch: nocache runs always execute and never commit.
func TestNoCacheEscapeHatch(t *testing.T) {
	cl, api, cache := newCachedServer(t, nil)
	spec := client.RunSpec{Experiments: []string{"fig4"}, Short: true, Samples: 2, Seed: 3, NoCache: true}

	for i := 0; i < 2; i++ {
		sub, err := cl.SubmitRun(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range doneResults(t, cl, sub.ID) {
			if r.Cache != "" {
				t.Errorf("nocache run %d served from cache (%s)", i, r.Cache)
			}
		}
	}
	if local := api.disp.met.jobsDone.Value("local"); local != 2 {
		t.Errorf("local executions = %v, want 2 (no reuse)", local)
	}
	if st := cache.Stats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("nocache runs touched the cache: %+v", st)
	}
}

// --- Adaptive sampling ----------------------------------------------------

// TestMeasureAdaptiveDeterministic: the sequential stopping rule is a
// pure function of positionally-seeded samples, so two engines stop at
// the same n with the same summary — and sampling respects the bounds.
func TestMeasureAdaptiveDeterministic(t *testing.T) {
	b := javabench.Tomcat()
	env := workload.DefaultEnv(arch.ARMv8())
	rule := stats.StopRule{RelPrecision: 0.10, MinSamples: 3, MaxSamples: 12}

	run := func() stats.Summary {
		e := New(Options{Workers: 3})
		defer e.Close()
		sum, err := e.MeasureAdaptive(context.Background(), b, env, rule, 42)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("adaptive summaries diverged:\n%+v\n%+v", first, second)
	}
	if first.N < rule.MinSamples || first.N > rule.MaxSamples {
		t.Fatalf("stopped at n=%d outside [%d, %d]", first.N, rule.MinSamples, rule.MaxSamples)
	}
	// Whatever n it stopped at, the samples must be the positional
	// prefix the fixed path would draw.
	want, err := workload.Measure(b, env, first.N, 42)
	if err != nil {
		t.Fatal(err)
	}
	if first != want {
		t.Fatalf("adaptive summary %+v != fixed-n prefix %+v", first, want)
	}
}

// TestAdaptiveRunAPI drives the opt-in end to end through the v1 API:
// the run completes, per-experiment sample accounting reflects the
// stopping rule, and repeated adaptive runs stay byte-identical.
func TestAdaptiveRunAPI(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := testClient(ts)
	spec := client.RunSpec{
		Experiments: []string{"fig4"},
		Short:       true,
		Seed:        3,
		Adaptive:    &client.AdaptiveSpec{RelPrecision: 0.25, MaxSamples: 8},
	}
	canonical := func() []byte {
		sub, err := cl.SubmitRun(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		doneResults(t, cl, sub.ID)
		can, err := cl.CanonicalRun(context.Background(), sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		return can
	}
	if !bytes.Equal(canonical(), canonical()) {
		t.Error("adaptive runs are not byte-identical")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := testClient(ts)
	_, err := cl.SubmitRun(context.Background(), client.RunSpec{
		Experiments: []string{"fig4"},
		Adaptive:    &client.AdaptiveSpec{RelPrecision: 2.0},
	})
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("bad adaptive spec returned %v, want 400", err)
	}
}
