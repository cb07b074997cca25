// Package workload provides the benchmark framework: a Benchmark describes
// how to build per-core programs against a platform code generator, and the
// Runner executes it on the simulator across seeds, producing the
// performance samples (geometric means, confidence intervals) that the
// paper's methodology consumes.
//
// Performance follows the paper's §2 definitions: either throughput (work
// units per unit time) or response time (inverse mean / inverse worst-case
// gap between completed requests), each with an inherent stability
// determined by the spread of repeated samples.
package workload

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/arch"
	"repro/internal/costfn"
	"repro/internal/platform/c11"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Platform names the platform family a benchmark runs on.
type Platform uint8

const (
	// JVMPlatform benchmarks exercise the Hotspot barrier code paths.
	JVMPlatform Platform = iota
	// KernelPlatform benchmarks exercise the Linux barrier macros.
	KernelPlatform
	// C11Platform benchmarks exercise the C11 memory_order lowerings.
	C11Platform
)

// Metric selects how performance is derived from a run.
type Metric uint8

const (
	// Throughput is work units per simulated nanosecond (higher better).
	Throughput Metric = iota
	// InvMeanResponse is the inverse mean gap between work completions
	// (higher better), for request-serving benchmarks.
	InvMeanResponse
	// InvMaxResponse is the inverse tail (95th percentile) gap between
	// completions (higher better); the paper singles out worst-case
	// response time as a key measure, and the tail percentile is its
	// stable analogue under simulation noise.
	InvMaxResponse
)

// BuildCtx is handed to a benchmark's Build function.
type BuildCtx struct {
	M    *sim.Machine
	Prof *arch.Profile
	// Exactly one of JVM/Kernel/C11 is non-nil, per the benchmark's
	// Platform.
	JVM    *jvm.JVM
	Kernel *kernel.Kernel
	C11    *c11.C11
	// Seed-derived randomness for program/data layout.
	Rand func() uint64
}

// Benchmark describes one benchmark program.
type Benchmark struct {
	Name     string
	Platform Platform
	Metric   Metric

	Cores    int
	MemWords int
	// MaxCycles bounds the measured run; WarmupCycles are excluded from
	// the work accounting (JIT warm-up analogue).
	MaxCycles    int64
	WarmupCycles int64

	// NoiseARM and NoisePOWER are the relative standard deviations of
	// multiplicative sample noise per profile, modelling external
	// interference the simulator does not capture (e.g. SMT pairing on
	// the POWER7, which the paper blames for xalan's instability, or the
	// ARM instabilities of lusearch/tomcat/tradebeans).  Zero means no
	// extra noise.
	NoiseARM   float64
	NoisePOWER float64

	// Build loads the per-core programs.
	Build func(ctx *BuildCtx) error
}

// Env binds a benchmark run to a platform configuration.
type Env struct {
	Prof *arch.Profile
	// JVMStrategy and Inject configure the jvm platform for JVM
	// benchmarks; KernelStrategy the kernel platform; C11Strategy the
	// C11 platform.
	JVMStrategy    jvm.Strategy
	KernelStrategy kernel.Strategy
	C11Strategy    c11.Strategy
	Inject         map[arch.PathID]costfn.Injection
}

// DefaultEnv returns an Env with the stock strategy for the profile and no
// injections.
func DefaultEnv(prof *arch.Profile) Env {
	return Env{
		Prof:           prof,
		JVMStrategy:    jvm.JDK8(),
		KernelStrategy: kernel.Default(),
		C11Strategy:    c11.Barriers(),
	}
}

// NopBase returns a copy of e with every instrumented code path padded
// with nops — the paper's base case.  paths lists the code paths under
// instrumentation.
func (e Env) NopBase(paths []arch.PathID) Env {
	inj := make(map[arch.PathID]costfn.Injection, len(paths))
	v := costfn.ForProfile(e.Prof)
	for _, p := range paths {
		inj[p] = costfn.Nops(v)
	}
	e.Inject = inj
	return e
}

// WithCost returns a copy of e injecting a cost function of n iterations
// into the listed paths and nop padding into the rest of all paths.
func (e Env) WithCost(costPaths, allPaths []arch.PathID, n int64) Env {
	v := costfn.ForProfile(e.Prof)
	inj := make(map[arch.PathID]costfn.Injection, len(allPaths))
	for _, p := range allPaths {
		inj[p] = costfn.Nops(v)
	}
	for _, p := range costPaths {
		inj[p] = costfn.Cost(v, n)
	}
	e.Inject = inj
	return e
}

// machineKey identifies a simulator configuration for reuse purposes:
// machines of equal key differ only by seed, which Reset restores.  The
// profile is keyed by value: drivers build a fresh profile per job
// (arch.ARMv8 returns a new pointer on every call), so a pointer key
// would cache one more machine for every job and never free it.
type machineKey struct {
	prof     arch.Profile
	cores    int
	memWords int
	warmup   int64
	record   bool
}

// MachineCache reuses simulator machines across runs of identical
// configuration via sim.Machine.Reset, eliminating the dominant per-sample
// allocation cost (machine construction).  Reset-reuse is bit-identical to
// fresh construction (proven by the sim package's equivalence tests), so
// cached and uncached runs produce the same samples.
//
// A cache is NOT safe for concurrent use: give each worker goroutine its
// own (see Samples and the engine's worker pool).
type MachineCache struct {
	machines map[machineKey]*sim.Machine
	gaps     []float64 // response-gap staging buffer
	scratch  []float64 // stats.PercentileScratch sort buffer
}

// NewMachineCache returns an empty cache.
func NewMachineCache() *MachineCache { return &MachineCache{} }

// acquire returns a machine for the profile and config, reusing a cached
// one when the configuration (everything but the seed) matches.  A cached
// machine runs on the cache's own copy of the profile, so no caller can
// later change the machine under its key.
func (mc *MachineCache) acquire(prof *arch.Profile, cfg sim.Config) (*sim.Machine, error) {
	if mc == nil {
		return sim.New(prof, cfg)
	}
	key := machineKey{*prof, cfg.Cores, cfg.MemWords, cfg.WarmupCycles, cfg.RecordWork}
	if m := mc.machines[key]; m != nil {
		m.Reset(cfg.Seed)
		return m, nil
	}
	own := key.prof
	m, err := sim.New(&own, cfg)
	if err != nil {
		return nil, err
	}
	if mc.machines == nil {
		mc.machines = make(map[machineKey]*sim.Machine)
	}
	mc.machines[key] = m
	return m, nil
}

// Run executes the benchmark once under env with the given seed and
// returns the performance value for the benchmark's metric.
func Run(b *Benchmark, env Env, seed int64) (float64, error) {
	return RunWith(nil, b, env, seed)
}

// RunWith is Run reusing machines and scratch buffers from mc (which may be
// nil for uncached one-shot execution).  Results are bit-identical to Run.
func RunWith(mc *MachineCache, b *Benchmark, env Env, seed int64) (float64, error) {
	cores := b.Cores
	if cores <= 0 {
		cores = 4
	}
	memWords := b.MemWords
	if memWords <= 0 {
		memWords = 1 << 15
	}
	maxCycles := b.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 150_000
	}
	warmup := b.WarmupCycles
	if warmup <= 0 {
		warmup = maxCycles / 5
	}
	m, err := mc.acquire(env.Prof, sim.Config{
		Cores:        cores,
		MemWords:     memWords,
		Seed:         seed,
		WarmupCycles: warmup,
		RecordWork:   b.Metric != Throughput,
	})
	if err != nil {
		return 0, err
	}
	ctx := &BuildCtx{M: m, Prof: env.Prof}
	switch b.Platform {
	case JVMPlatform:
		ctx.JVM = jvm.New(jvm.Config{Prof: env.Prof, Strategy: env.JVMStrategy, Inject: env.Inject})
	case KernelPlatform:
		ctx.Kernel = kernel.New(kernel.Config{Prof: env.Prof, Strategy: env.KernelStrategy, Inject: env.Inject})
	case C11Platform:
		ctx.C11 = c11.New(c11.Config{Prof: env.Prof, Strategy: env.C11Strategy, Inject: env.Inject})
	}
	rng := seed*0x9e3779b97f4a7c + 0x1234567
	ctx.Rand = func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return uint64(rng)
	}
	if err := b.Build(ctx); err != nil {
		return 0, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	res, err := m.Run(maxCycles)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	perf, err := metricValue(b, env.Prof, res, mc)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", b.Name, err)
	}
	noise := b.NoiseARM
	if env.Prof.Flavor == arch.NonMCA {
		noise = b.NoisePOWER
	}
	if noise > 0 {
		// Seeded multiplicative noise: triangular-ish via the sum of two
		// uniforms, cheap and bounded.  The noise stream is decorrelated
		// from the paired base-case run by hashing the environment into
		// the seed, as external interference would be: otherwise it
		// cancels in the relative-performance ratio.
		n := uint64(seed)*0x9e3779b9 ^ envHash(env)
		u1 := float64(splitmix(&n)%10000)/10000 - 0.5
		u2 := float64(splitmix(&n)%10000)/10000 - 0.5
		perf *= 1 + noise*(u1+u2)
	}
	return perf, nil
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// envHash folds the environment's observable configuration into a hash so
// noise streams differ between configurations.
func envHash(env Env) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, c := range env.JVMStrategy.Name + "/" + env.KernelStrategy.Name + "/" + env.C11Strategy.Name {
		mix(uint64(c))
	}
	mix(uint64(env.KernelStrategy.RBD))
	if env.KernelStrategy.LASR {
		mix(7)
	}
	if env.JVMStrategy.UseAcqRel {
		mix(11)
	}
	if env.JVMStrategy.HeavyStoreStore {
		mix(13)
	}
	if env.JVMStrategy.LockPatch {
		mix(17)
	}
	if env.JVMStrategy.AcqRelLoad {
		mix(19)
	}
	if env.JVMStrategy.AcqRelStore {
		mix(23)
	}
	if env.JVMStrategy.DropStoreLoad {
		mix(29)
	}
	// Map iteration order is random; fold entries commutatively so the
	// hash stays deterministic.
	var acc uint64
	for p, inj := range env.Inject {
		acc += uint64(p)*2654435761 + uint64(inj.Mode)*97 + uint64(inj.Iterations)
	}
	mix(acc)
	return h
}

func metricValue(b *Benchmark, prof *arch.Profile, res sim.Result, mc *MachineCache) (float64, error) {
	switch b.Metric {
	case Throughput:
		if res.TotalWork == 0 {
			return 0, fmt.Errorf("no work retired in %d cycles", res.Cycles)
		}
		return res.WorkPerNs(prof), nil
	case InvMeanResponse, InvMaxResponse:
		var gaps []float64
		if mc != nil {
			gaps = mc.gaps[:0]
		}
		for _, c := range res.Cores {
			ts := c.WorkTimes
			for i := 1; i < len(ts); i++ {
				gaps = append(gaps, prof.CyclesToNs(ts[i]-ts[i-1]))
			}
		}
		if mc != nil {
			mc.gaps = gaps
		}
		if len(gaps) == 0 {
			return 0, fmt.Errorf("no response gaps recorded")
		}
		if b.Metric == InvMeanResponse {
			return 1 / stats.Mean(gaps), nil
		}
		if mc != nil {
			return 1 / stats.PercentileScratch(gaps, 95, &mc.scratch), nil
		}
		return 1 / stats.Percentile(gaps, 95), nil
	}
	return 0, fmt.Errorf("unknown metric")
}

// SampleSeed derives the seed of the i-th sample of a measurement with
// the given base seed.  The derivation is positional, so a measurement's
// samples are identical whether they run sequentially here or are fanned
// out across an execution engine's worker pool.
func SampleSeed(baseSeed int64, i int) int64 {
	return baseSeed + int64(i)*104729 + 1
}

// Samples runs the benchmark n times with distinct seeds and returns the
// performance samples in seed order.  Runs are independent simulator
// instances, so on multi-core hosts they execute in parallel (bounded by
// GOMAXPROCS) without affecting determinism.
func Samples(b *Benchmark, env Env, n int, baseSeed int64) ([]float64, error) {
	out := make([]float64, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		mc := NewMachineCache()
		for i := 0; i < n; i++ {
			out[i], errs[i] = RunWith(mc, b, env, SampleSeed(baseSeed, i))
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mc := NewMachineCache()
				for i := range next {
					out[i], errs[i] = RunWith(mc, b, env, SampleSeed(baseSeed, i))
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Measure runs the benchmark and summarises the samples.
func Measure(b *Benchmark, env Env, n int, baseSeed int64) (stats.Summary, error) {
	xs, err := Samples(b, env, n, baseSeed)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarise(xs), nil
}
