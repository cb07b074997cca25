// Package wmm is the public API of the weak-memory-model benchmarking
// library, a reproduction of "Benchmarking Weak Memory Models" (Ritson &
// Owens, PPoPP 2016) on simulated ARMv8 and POWER7 machines.
//
// The library has four layers, all re-exported here:
//
//   - the machine: a cycle-approximate multicore simulator with a weak
//     memory model (store buffers, out-of-order satisfaction, non-multi-
//     copy-atomic propagation on POWER, barriers, exclusives), validated by
//     a litmus-test suite;
//
//   - the platforms: Hotspot-style JVM barrier code generation and
//     Linux-style kernel barrier macros, each with swappable fencing
//     strategies and per-code-path cost-function injection;
//
//   - the benchmarks: calibrated synthetic stand-ins for the paper's
//     DaCapo/Spark and kernel workloads;
//
//   - the methodology: cost-function calibration, sensitivity scans
//     fitting p = 1/((1-k)+k·a), fixed-size surveys, strategy comparisons
//     and the equation-(2) cost-increase bridge.
//
// The experiment drivers that regenerate every table and figure of the
// paper live behind RunExperiment / Experiments.
package wmm

import (
	"context"
	"encoding/json"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fit"
	"repro/internal/litmus"
	"repro/internal/litmus/gen"
	"repro/internal/platform/c11"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/c11bench"
	"repro/internal/workload/javabench"
	"repro/internal/workload/linuxbench"
)

// ---------------------------------------------------------------- machine --

// Profile describes a simulated processor (timing, pipeline, memory-model
// flavour).
type Profile = arch.Profile

// ARMv8 returns the paper's X-Gene-1-like evaluation profile.
func ARMv8() *Profile { return arch.ARMv8() }

// POWER7 returns the paper's POWER7-like evaluation profile.
func POWER7() *Profile { return arch.POWER7() }

// ProfileByName returns a fresh evaluation profile by name: "armv8" or
// "power7".
func ProfileByName(name string) (*Profile, error) { return arch.ByName(name) }

// Profiles returns both evaluation profiles keyed as the paper's figures
// name them ("arm", "power").
func Profiles() map[string]*Profile { return arch.Profiles() }

// Machine is a runnable multicore simulator instance.
type Machine = sim.Machine

// MachineConfig parameterises a Machine.
type MachineConfig = sim.Config

// RunResult reports a machine run.
type RunResult = sim.Result

// NewMachine constructs a machine for the given profile.
func NewMachine(p *Profile, cfg MachineConfig) (*Machine, error) {
	return sim.New(p, cfg)
}

// Builder assembles programs for the machine.
type Builder = arch.Builder

// Program is an executable instruction sequence.
type Program = arch.Program

// Instr is a single instruction.
type Instr = arch.Instr

// Reg names a machine register.
type Reg = arch.Reg

// BarrierKind enumerates memory barriers (DMBIsh, LwSync, ...).
type BarrierKind = arch.BarrierKind

// Barrier kinds, re-exported for program construction.
const (
	DMBIsh   = arch.DMBIsh
	DMBIshLd = arch.DMBIshLd
	DMBIshSt = arch.DMBIshSt
	ISB      = arch.ISB
	LwSync   = arch.LwSync
	HwSync   = arch.HwSync
)

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return arch.NewBuilder() }

// ParseAsm assembles a textual program (see internal/arch.Parse for the
// syntax; cmd/wmmasm for a worked example).
func ParseAsm(src string) (Program, error) { return arch.Parse(src) }

// TraceEvent is one retired instruction reported by a machine tracer.
type TraceEvent = sim.TraceEvent

// Tracer receives retirement events (install with Machine.SetTracer or
// Machine.WriteTraceTo).
type Tracer = sim.Tracer

// ----------------------------------------------------------------- litmus --

// LitmusTest is a litmus shape with per-profile expectations.
type LitmusTest = litmus.Test

// LitmusRunner executes litmus tests across randomized alignments.
type LitmusRunner = litmus.Runner

// LitmusOutcome counts a litmus campaign's results.
type LitmusOutcome = litmus.Outcome

// LitmusSuite returns the conformance catalogue for a profile name
// ("armv8" or "power7").
func LitmusSuite(profile string) []*LitmusTest { return litmus.Suite(profile) }

// LitmusExhaustiveReport enumerates a test's reachable final-memory
// outcomes (LitmusRunner.Exhaustive / CheckExhaustive): where sampling
// counts how often the relaxed outcome shows up, an exhaustive report
// is a proof of absence for forbidden shapes and a replayable witness
// for allowed ones.
type LitmusExhaustiveReport = litmus.ExhaustiveReport

// LitmusExhaustiveOutcome is one reachable final-memory outcome of an
// exhaustive exploration.
type LitmusExhaustiveOutcome = litmus.ExhaustiveOutcome

// LitmusGenConfig parameterises GenerateLitmus.
type LitmusGenConfig = gen.Config

// LitmusRecipe is one generated litmus test in critical-cycle form.
type LitmusRecipe = gen.Recipe

// GenerateLitmus emits a batch of diy-style generated litmus tests.
// The batch is a pure function of the config: same config, same
// byte-identical recipe list, on every machine.
func GenerateLitmus(cfg LitmusGenConfig) ([]*LitmusRecipe, error) { return gen.Generate(cfg) }

// BuildLitmus derives the runnable tests for a generated recipe batch.
func BuildLitmus(recipes []*LitmusRecipe) []*LitmusTest { return gen.BuildAll(recipes) }

// ------------------------------------------------------------- benchmarks --

// Benchmark is a runnable benchmark program.
type Benchmark = workload.Benchmark

// Env binds a benchmark to a platform configuration (profile, fencing
// strategy, injections).
type Env = workload.Env

// DefaultEnv returns the stock environment for a profile.
func DefaultEnv(p *Profile) Env { return workload.DefaultEnv(p) }

// JVMBenchmarks returns the §4.2 suite (DaCapo subset + spark stand-ins).
func JVMBenchmarks() []*Benchmark { return javabench.Suite() }

// KernelBenchmarks returns the §4.3 suite (netperf, ebizzy, lmbench, osm,
// kernel compile, re-hosted JVM benchmarks).
func KernelBenchmarks() []*Benchmark { return linuxbench.Suite() }

// JVMBenchmark returns one §4.2 benchmark by name.
func JVMBenchmark(name string) (*Benchmark, error) { return javabench.ByName(name) }

// KernelBenchmark returns one §4.3 benchmark by name.
func KernelBenchmark(name string) (*Benchmark, error) { return linuxbench.ByName(name) }

// MeasureBenchmark runs a benchmark n times and summarises the samples.
func MeasureBenchmark(b *Benchmark, env Env, n int, seed int64) (Summary, error) {
	return workload.Measure(b, env, n, seed)
}

// -------------------------------------------------------------- statistics --

// Summary is a sample summary (geometric mean, Student-t 95% interval).
type Summary = stats.Summary

// Comparative is a test/base performance ratio with compounded error.
type Comparative = stats.Comparative

// Sensitivity is a fitted k with its standard error.
type Sensitivity = fit.Sensitivity

// SensitivityModel evaluates equation (1): p = 1/((1-k) + k·a).
func SensitivityModel(k, a float64) float64 { return fit.Model(k, a) }

// CostIncrease evaluates equation (2): the per-invocation cost increase
// implied by relative performance p at sensitivity k.
func CostIncrease(k, p float64) float64 { return fit.CostIncrease(k, p) }

// FitSensitivity fits equation (1) to (cost-ns, relative-performance)
// observations by nonlinear least squares.
func FitSensitivity(pts []FitPoint) (Sensitivity, error) { return fit.FitSensitivity(pts) }

// FitPoint is one observation for FitSensitivity.
type FitPoint = fit.Point

// ------------------------------------------------------------ methodology --

// Calibration maps cost-function loop counts to nanoseconds (Figure 4).
type Calibration = core.Calibration

// Calibrate measures the cost-function curve for a profile.
func Calibrate(p *Profile, sizes []int64, seed int64) (Calibration, error) {
	return core.Calibrate(p, sizes, seed)
}

// ScanConfig describes a sensitivity scan (§3).
type ScanConfig = core.ScanConfig

// ScanResult is a completed scan with its fitted sensitivity.
type ScanResult = core.ScanResult

// SensitivityScan sweeps cost-function sizes over code paths and fits the
// sensitivity model.
func SensitivityScan(cfg ScanConfig) (ScanResult, error) { return core.Session{}.SensitivityScan(cfg) }

// ProbeResult is a fixed-size probe measurement.
type ProbeResult = core.ProbeResult

// Survey probes every (benchmark, code path) pair with a fixed cost
// (Figures 7-8).
func Survey(benches []*Benchmark, env Env, paths []PathID, size int64, samples int, seed int64) ([]ProbeResult, error) {
	return core.Session{}.Survey(benches, env, paths, size, samples, seed)
}

// CompareStrategies measures a fencing-strategy change on one benchmark.
func CompareStrategies(b *Benchmark, base, test Env, allPaths []PathID, samples int, seed int64) (Comparative, error) {
	return core.Session{}.CompareStrategies(b, base, test, allPaths, samples, seed)
}

// PathID identifies an instrumentable platform code path.
type PathID = arch.PathID

// Injection is what a code path receives: nothing, nop padding, or a cost
// function.
type Injection = costfn.Injection

// JVMAllBarriersPath returns the code path hit once per emitted JVM
// composite barrier (the Figure 5 instrumentation point).
func JVMAllBarriersPath() PathID { return jvm.PathAnyBarrier }

// JVMElementalPaths returns the four elemental-barrier code paths in
// LoadLoad, LoadStore, StoreLoad, StoreStore order (Figure 6).
func JVMElementalPaths() []PathID {
	return []PathID{jvm.PathLoadLoad, jvm.PathLoadStore, jvm.PathStoreLoad, jvm.PathStoreStore}
}

// KernelMacroPaths returns the fourteen kernel barrier-macro code paths
// (Figures 7-8).
func KernelMacroPaths() []PathID { return append([]PathID{}, kernel.Paths...) }

// KernelRBDPath returns the read_barrier_depends code path (Figures 9-10).
func KernelRBDPath() PathID { return kernel.PathReadBarrierDepends }

// KernelPathName returns the macro name of a kernel code path.
func KernelPathName(p PathID) string { return kernel.PathName(p) }

// JVMStrategyJDK8 returns the barrier-based volatile strategy.
func JVMStrategyJDK8() jvm.Strategy { return jvm.JDK8() }

// JVMStrategyJDK9 returns the acquire/release volatile strategy.
func JVMStrategyJDK9() jvm.Strategy { return jvm.JDK9() }

// KernelStrategies returns the Figure 10 read_barrier_depends strategies
// in the figure's order (base case, ctrl, ctrl+isb, dmb ishld, dmb ish,
// la/sr).
func KernelStrategies() []kernel.Strategy { return kernel.Strategies() }

// ------------------------------------------------------------------- c11 --

// C11Order is a C11 memory_order (the §6 extension platform).
type C11Order = c11.Order

// C11 memory orders.
const (
	Relaxed = c11.Relaxed
	Consume = c11.Consume
	Acquire = c11.Acquire
	Release = c11.Release
	AcqRel  = c11.AcqRel
	SeqCst  = c11.SeqCst
)

// C11Gen generates C11 atomic accesses and the lock-free structures built
// on them (Treiber stack, Michael-Scott queue).
type C11Gen = c11.C11

// NewC11 returns a C11 code generator for the profile.  acqRel selects the
// ldar/stlr lowering on the MCA profile (vs dmb sequences).
func NewC11(p *Profile, acqRel bool) *C11Gen {
	st := c11.Barriers()
	if acqRel {
		st = c11.AcqRelInstrs()
	}
	return c11.New(c11.Config{Prof: p, Strategy: st})
}

// C11Paths returns the instrumentable memory_order code paths.
func C11Paths() []PathID { return append([]PathID{}, c11.Paths...) }

// C11Benchmarks returns the ext-c11 experiment's instruments: the Treiber
// stack under the given orders and the fetch_add counter at an order.
func C11StackBenchmark(name string, orders c11.StackOrders) *Benchmark {
	return c11bench.Stack(name, orders)
}

// C11CounterBenchmark returns the shared-counter benchmark at an order.
func C11CounterBenchmark(name string, order C11Order) *Benchmark {
	return c11bench.Counter(name, order)
}

// StackOrders selects the Treiber stack's memory orders; see
// c11.ReleaseAcquire, c11.AllSeqCst, c11.AllRelaxed.
type StackOrders = c11.StackOrders

// ReleaseAcquireStack returns the canonical correct stack orderings.
func ReleaseAcquireStack() StackOrders { return c11.ReleaseAcquire() }

// SeqCstStack returns the defensive stack orderings.
func SeqCstStack() StackOrders { return c11.AllSeqCst() }

// DefaultScanSizes is the standard cost-size sweep in loop iterations.
func DefaultScanSizes() []int64 {
	return append([]int64{}, core.DefaultSizes...)
}

// ------------------------------------------------------------ experiments --

// ExperimentOptions tunes the paper-experiment drivers.
type ExperimentOptions = experiments.Options

// Experiments lists every table/figure driver in paper order.
func Experiments() []experiments.Experiment { return experiments.All() }

// RunExperiment runs one named experiment (fig1..fig10, txt1..txt7,
// litmus) directly in-process.
func RunExperiment(name string, o ExperimentOptions) error {
	return RunExperimentContext(context.Background(), name, o)
}

// RunExperimentContext runs one named experiment under a context: the
// run aborts at its next measurement once ctx is cancelled or its
// deadline passes.
func RunExperimentContext(ctx context.Context, name string, o ExperimentOptions) error {
	e, err := experiments.ByName(name)
	if err != nil {
		return err
	}
	o.Ctx = ctx
	return e.Run(o)
}

// RunAllExperiments runs the full evaluation in paper order.
func RunAllExperiments(o ExperimentOptions) error { return experiments.RunAll(o) }

// ----------------------------------------------------------------- engine --

// Engine is the concurrent experiment execution engine: a worker pool
// fanning individual sample measurements across GOMAXPROCS workers with
// positional seed derivation (so pooled runs are bit-identical to
// sequential ones), plus a process-wide calibration cache.  Close it when
// done.
type Engine = engine.Engine

// EngineOptions configures NewEngine.
type EngineOptions = engine.Options

// EngineRunOptions parameterises one Engine.Run call.
type EngineRunOptions = engine.RunOptions

// EngineResult is the structured outcome of one experiment: the paper
// artifact it regenerates, its tables, fitted sensitivities, measurement
// counts, and wall time, serializable to JSON.
type EngineResult = engine.Result

// NewEngine starts an execution engine and its worker pool.
func NewEngine(o EngineOptions) *Engine { return engine.New(o) }

// RunExperimentJSON runs one named experiment through a fresh engine and
// returns its structured result serialized as JSON.  Long-lived callers
// wanting the shared calibration cache across experiments should hold an
// Engine and use Engine.Run instead.
func RunExperimentJSON(ctx context.Context, name string, o ExperimentOptions) ([]byte, error) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	results, err := eng.Run(ctx, []string{name}, engine.RunOptions{
		Samples: o.Samples,
		Seed:    o.Seed,
		Short:   o.Short,
	}, nil)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(results[0], "", "  ")
}
