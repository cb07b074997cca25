// Package experiments contains one driver per table and figure in the
// paper's evaluation (§4), each regenerating the same rows/series the
// paper reports, on the simulated machines.  DESIGN.md carries the
// experiment index; EXPERIMENTS.md records paper-vs-measured outcomes.
//
// Drivers obtain every measurement and calibration through their Options'
// Runtime, so the same driver code runs directly in-process (the zero
// Options) or through internal/engine's worker pool and calibration cache
// — with bit-identical output either way, because sample seeds are
// derived positionally rather than from execution order.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Runtime is the measurement backend a driver runs against.  The engine
// implements it with a worker pool and a process-wide calibration cache;
// a nil Runtime executes sequentially in-process (see sequential).
type Runtime interface {
	// Measure runs n samples of bench under env and summarises them.
	Measure(ctx context.Context, b *workload.Benchmark, env workload.Env, n int, seed int64) (stats.Summary, error)
	// MeasureAdaptive samples bench until the stopping rule is met.
	MeasureAdaptive(ctx context.Context, b *workload.Benchmark, env workload.Env, rule stats.StopRule, seed int64) (stats.Summary, error)
	// Calibration returns the Figure 4 curve for the profile over the
	// given sizes, possibly from a cache.
	Calibration(ctx context.Context, prof *arch.Profile, sizes []int64, seed int64) (core.Calibration, error)
}

// sequential is the Runtime a nil Options.RT stands for: every sample
// and calibration runs directly in the calling process.
type sequential struct{}

func (sequential) Measure(ctx context.Context, b *workload.Benchmark, env workload.Env, n int, seed int64) (stats.Summary, error) {
	if err := ctx.Err(); err != nil {
		return stats.Summary{}, err
	}
	return workload.Measure(b, env, n, seed)
}

// MeasureAdaptive re-measures at the rule's deterministic growth
// schedule, which positional seeding makes value-identical to the
// engine's incrementally extended buffer (the first k samples of an
// n-sample measurement are the same for every n).
func (s sequential) MeasureAdaptive(ctx context.Context, b *workload.Benchmark, env workload.Env, rule stats.StopRule, seed int64) (sum stats.Summary, err error) {
	for n := rule.MinSamples; ; n = rule.Next(n) {
		if sum, err = s.Measure(ctx, b, env, n, seed); err != nil || rule.Done(sum) {
			return sum, err
		}
	}
}

func (sequential) Calibration(ctx context.Context, prof *arch.Profile, sizes []int64, seed int64) (core.Calibration, error) {
	if err := ctx.Err(); err != nil {
		return core.Calibration{}, err
	}
	return core.Calibrate(prof, sizes, seed)
}

// FitRecord is one fitted sensitivity produced by a driver, collected for
// the structured result model.
type FitRecord struct {
	Profile string  `json:"profile"`
	Bench   string  `json:"bench"`
	K       float64 `json:"k"`
	StdErr  float64 `json:"stderr"`
}

// Collector accumulates the structured artefacts of one experiment run
// alongside the rendered ASCII output.  A Collector belongs to a single
// driver invocation and is not safe for concurrent use.
type Collector struct {
	Tables       []*report.Table
	Fits         []FitRecord
	Measurements int // Measure calls issued
	Samples      int // individual sample runs issued
}

// Options tunes the experiment drivers.
type Options struct {
	// Samples per measurement; the paper uses six or more (§4.1).
	Samples int
	// Seed is the base random seed.
	Seed int64
	// Short runs a reduced sweep (fewer sizes and samples) for quick
	// iteration and -short tests.
	Short bool
	// Out receives the rendered tables; os.Stdout if nil.
	Out io.Writer
	// Ctx cancels the run between measurements; context.Background()
	// if nil.
	Ctx context.Context
	// RT is the measurement backend; sequential in-process execution if
	// nil.
	RT Runtime
	// Collect, when non-nil, receives the run's structured artefacts
	// (tables, fitted sensitivities, measurement counts).
	Collect *Collector
	// Adaptive, when non-nil, replaces the fixed sample count with
	// sequential stopping: every measurement draws samples until the
	// rule's CI precision target is met (or its ceiling reached).  The
	// stopping decision is a pure function of positionally-seeded
	// samples, so adaptive runs remain byte-identical across processes.
	Adaptive *stats.StopRule
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return os.Stdout
	}
	return o.Out
}

func (o Options) samples() int {
	if o.Samples > 0 {
		return o.Samples
	}
	if o.Short {
		return 3
	}
	return 6
}

func (o Options) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// sizes returns the cost-function sweep in loop iterations.
func (o Options) sizes() []int64 {
	if o.Short {
		return []int64{1, 8, 64, 512}
	}
	return []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
}

func (o Options) rt() Runtime {
	if o.RT != nil {
		return o.RT
	}
	return sequential{}
}

// measurer adapts the runtime into the methodology's Measurer, counting
// issued work into the collector.  When Adaptive is set it supersedes the
// fixed sample count n on every measurement the drivers issue.
func (o Options) measurer() core.Measurer {
	return func(b *workload.Benchmark, env workload.Env, n int, seed int64) (stats.Summary, error) {
		if o.Adaptive != nil {
			return o.measureAdaptive(b, env, seed)
		}
		if o.Collect != nil {
			o.Collect.Measurements++
			o.Collect.Samples += n
		}
		return o.rt().Measure(o.ctx(), b, env, n, seed)
	}
}

// measureAdaptive runs one measurement under the sequential stopping
// rule.  Samples are counted into the collector at the achieved N, which
// is how adaptive savings become visible in run records.
func (o Options) measureAdaptive(b *workload.Benchmark, env workload.Env, seed int64) (stats.Summary, error) {
	if o.Collect != nil {
		o.Collect.Measurements++
	}
	sum, err := o.rt().MeasureAdaptive(o.ctx(), b, env, o.Adaptive.WithDefaults(), seed)
	if err == nil && o.Collect != nil {
		o.Collect.Samples += sum.N
	}
	return sum, err
}

// measure runs one measurement with the options' sample count and seed.
func (o Options) measure(b *workload.Benchmark, env workload.Env) (stats.Summary, error) {
	return o.measurer()(b, env, o.samples(), o.seed())
}

// calibration returns the Figure 4 curve for the profile over sizes,
// through the runtime's cache when it has one.
func (o Options) calibration(prof *arch.Profile, sizes []int64) (core.Calibration, error) {
	return o.rt().Calibration(o.ctx(), prof, sizes, o.seed())
}

// scan runs a sensitivity scan through the runtime and records the fitted
// sensitivity in the collector.
func (o Options) scan(cfg core.ScanConfig) (core.ScanResult, error) {
	res, err := core.Session{Meas: o.measurer()}.SensitivityScan(cfg)
	if err == nil && o.Collect != nil {
		o.Collect.Fits = append(o.Collect.Fits, FitRecord{
			Profile: cfg.Env.Prof.Name,
			Bench:   cfg.Bench.Name,
			K:       res.Sens.K,
			StdErr:  res.Sens.StdErr,
		})
	}
	return res, err
}

// compare runs a strategy comparison through the runtime.
func (o Options) compare(b *workload.Benchmark, base, test workload.Env, allPaths []arch.PathID) (stats.Comparative, error) {
	return core.Session{Meas: o.measurer()}.CompareStrategies(b, base, test, allPaths, o.samples(), o.seed())
}

// survey runs a fixed-probe survey through the runtime.
func (o Options) survey(benches []*workload.Benchmark, env workload.Env, paths []arch.PathID, size int64) ([]core.ProbeResult, error) {
	return core.Session{Meas: o.measurer()}.Survey(benches, env, paths, size, o.samples(), o.seed())
}

// emit renders the table and hands it to the collector.
func (o Options) emit(t *report.Table) {
	if o.Collect != nil {
		o.Collect.Tables = append(o.Collect.Tables, t)
	}
	t.Render(o.out())
}

// profiles returns the evaluation profiles in presentation order.
func profiles() []*arch.Profile {
	return []*arch.Profile{arch.ARMv8(), arch.POWER7()}
}

// calibrations builds the Figure 4 curves needed to convert loop counts
// to nanoseconds on each profile, through the runtime's shared cache when
// one is attached (so concurrent drivers calibrate each profile once per
// process rather than once per driver).
func calibrations(o Options) (map[string]core.Calibration, error) {
	out := map[string]core.Calibration{}
	for _, p := range profiles() {
		cal, err := o.calibration(p, o.sizes())
		if err != nil {
			return nil, fmt.Errorf("calibrating %s: %w", p.Name, err)
		}
		out[p.Name] = cal
	}
	return out, nil
}

// Experiment names a runnable experiment for the CLI and the bench
// harness.
type Experiment struct {
	Name  string
	Desc  string
	Run   func(Options) error
	Paper string // the paper artifact it regenerates
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "example sensitivity fit (k ± error)", Fig1, "Figure 1"},
		{"fig4", "cost-function execution time vs loop count", Fig4, "Figure 4"},
		{"fig5", "JVM benchmark sensitivity to all barriers (arm, power)", Fig5, "Figure 5"},
		{"fig6", "spark sensitivity per elemental barrier", Fig6, "Figure 6"},
		{"fig7", "kernel: summed relative performance per macro", Fig7, "Figure 7"},
		{"fig8", "kernel: summed relative performance per benchmark", Fig8, "Figure 8"},
		{"fig9", "sensitivity to read_barrier_depends (six benchmarks)", Fig9, "Figure 9"},
		{"fig10", "read_barrier_depends strategy comparison", Fig10, "Figure 10"},
		{"txt1", "JVM nop-padding cost", Txt1, "§4.2"},
		{"txt2", "StoreStore barrier swap (dmb ishst→ish, lwsync→sync)", Txt2, "§4.2.1"},
		{"txt3", "barrier instruction microbenchmarks", Txt3, "§4.2.1/§4.4"},
		{"txt4", "JDK9 acq/rel vs JDK8 barriers per benchmark", Txt4, "§4.2.1"},
		{"txt5", "DMB-elimination lock patch", Txt5, "§4.2.1"},
		{"txt6", "kernel nop-padding cost", Txt6, "§4.3"},
		{"txt7", "cost increases of rbd strategies (equation 2)", Txt7, "§4.3.1"},
		{"litmus", "weak-memory litmus conformance", Litmus, "substrate validation"},
		{"ablations", "design-choice ablations (SB depth, MCA, speculation, fit model)", Ablations, "DESIGN.md §6"},
		{"counters", "invocation-counter alternative (the §3 comparison)", Counters, "§3"},
		{"ext-jit", "compiler-optimisation code-path sensitivity (§6 future work)", JITExtension, "§6"},
		{"ext-c11", "memory_order pricing on lock-free structures (§6 future work)", C11Extension, "§6"},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// Header is the banner RunAll prints before each experiment; the engine
// callers reuse it so batched parallel output is byte-identical to the
// sequential run.
func Header(e Experiment) string {
	return fmt.Sprintf("=== %s (%s): %s ===\n", e.Name, e.Paper, e.Desc)
}

// RunAll executes every experiment in order.
func RunAll(o Options) error {
	for _, e := range All() {
		if err := o.ctx().Err(); err != nil {
			return err
		}
		fmt.Fprint(o.out(), Header(e))
		if err := e.Run(o); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
