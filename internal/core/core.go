// Package core implements the paper's methodology (§3): treating each
// benchmark as a black box run across fencing strategies of the underlying
// platform, and
//
//  1. establishing the significance of a fencing choice for a platform by
//     measuring sensitivity to changes across a number of benchmarks, and
//  2. establishing the sensitivity of a particular benchmark to the
//     platform's fencing strategy by running it across a variety of
//     choices.
//
// The two instruments are the fixed-size cost-function probe (Figures 7-8:
// one large cost function per code path, relative performance recorded) and
// the variable-size sensitivity scan (Figures 1, 5, 6, 9: sweep the cost
// size, fit p = 1/((1-k)+ka) by nonlinear least squares).  Given a fitted
// k, an actual strategy change's relative performance p converts to a
// per-invocation cost increase a via equation (2) — the bridge between
// in-vitro and in-vivo measurement that §4.3.1 exploits.
package core

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/costfn"
	"repro/internal/fit"
	"repro/internal/stats"
	"repro/internal/workload"
)

// checkSummary rejects a measurement whose geometric mean is poisoned
// (stats.GeoMean returns NaN when any sample is non-positive).  Such a
// summary would silently corrupt the normalised performance p and the fit
// layer, so the instruments fail loudly instead.
func checkSummary(label string, s stats.Summary) error {
	if math.IsNaN(s.GeoMean) {
		return fmt.Errorf("core: %s has non-positive samples (geometric mean undefined)", label)
	}
	return nil
}

// DefaultSizes is the cost-function size sweep used by the scans, in loop
// iterations (the paper sweeps 2^0..2^8 ns; loop iterations are converted
// to nanoseconds through the Figure 4 calibration curve).
var DefaultSizes = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Calibration converts cost-function loop counts to nanoseconds for a
// profile.  Build one per profile with Calibrate and share it across scans.
type Calibration struct {
	Variant costfn.Variant
	Curve   []costfn.CalPoint
}

// Calibrate runs the Figure 4 measurement for the profile's default
// cost-function variant over the given sizes.
func Calibrate(prof *arch.Profile, sizes []int64, seed int64) (Calibration, error) {
	v := costfn.ForProfile(prof)
	curve, err := costfn.Calibrate(prof, v, sizes, seed)
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{Variant: v, Curve: curve}, nil
}

// Ns maps a loop count to nanoseconds.
func (c Calibration) Ns(iterations int64) float64 {
	return costfn.NsForIterations(c.Curve, iterations)
}

// Measurer runs one measurement — n samples of bench under env — and
// summarises them.  It is the single point through which the
// methodology's instruments obtain performance numbers: a nil Measurer
// means direct in-process execution via workload.Measure, while an
// execution engine substitutes a pooled, cancellable implementation
// without the instruments knowing.
type Measurer func(b *workload.Benchmark, env workload.Env, n int, seed int64) (stats.Summary, error)

// Measure dispatches through the Measurer, defaulting to direct
// execution.
func (m Measurer) Measure(b *workload.Benchmark, env workload.Env, n int, seed int64) (stats.Summary, error) {
	if m == nil {
		return workload.Measure(b, env, n, seed)
	}
	return m(b, env, n, seed)
}

// Session binds the methodology's instruments to a measurement backend.
// The zero Session measures directly in-process; Session{Meas: ...}
// routes every sample through the given backend (e.g. an engine worker
// pool).  Results are bit-identical either way because sample seeds are
// derived positionally (workload.SampleSeed).
type Session struct {
	Meas Measurer
}

// ScanConfig describes a sensitivity scan.
type ScanConfig struct {
	Bench *workload.Benchmark
	Env   workload.Env
	// CostPaths receive the variable cost function; AllPaths is the full
	// instrumented set (nop-padded in the base case and wherever the
	// cost function is absent), preserving binary-size invariance.
	CostPaths []arch.PathID
	AllPaths  []arch.PathID
	Sizes     []int64 // loop iterations; DefaultSizes if nil
	Samples   int     // samples per point; 6 if zero (paper §4.1)
	Seed      int64
	Cal       Calibration
}

// ScanPoint is one measured point of a scan.
type ScanPoint struct {
	Iterations int64
	Ns         float64
	Perf       stats.Summary
	P          float64 // relative performance vs the base case
	PLo, PHi   float64 // compounded comparative interval
}

// ScanResult is a completed sensitivity scan with its fitted model.
type ScanResult struct {
	Bench  string
	Base   stats.Summary
	Points []ScanPoint
	Sens   fit.Sensitivity
}

// SensitivityScan performs the §3 procedure: measure the nop-padded base
// case, sweep the cost-function size over the chosen code paths, and fit
// the sensitivity model to the relative performances.
func SensitivityScan(cfg ScanConfig) (ScanResult, error) {
	return Session{}.SensitivityScan(cfg)
}

// SensitivityScan runs the §3 scan through the session's backend.
func (s Session) SensitivityScan(cfg ScanConfig) (ScanResult, error) {
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = DefaultSizes
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 6
	}
	if len(cfg.Cal.Curve) == 0 {
		return ScanResult{}, fmt.Errorf("core: scan of %s missing calibration", cfg.Bench.Name)
	}
	base, err := s.Meas.Measure(cfg.Bench, cfg.Env.NopBase(cfg.AllPaths), samples, cfg.Seed)
	if err != nil {
		return ScanResult{}, fmt.Errorf("core: base case of %s: %w", cfg.Bench.Name, err)
	}
	if err := checkSummary(fmt.Sprintf("base case of %s", cfg.Bench.Name), base); err != nil {
		return ScanResult{}, err
	}
	res := ScanResult{Bench: cfg.Bench.Name, Base: base}
	pts := make([]fit.Point, 0, len(sizes))
	for _, n := range sizes {
		env := cfg.Env.WithCost(cfg.CostPaths, cfg.AllPaths, n)
		sum, err := s.Meas.Measure(cfg.Bench, env, samples, cfg.Seed)
		if err != nil {
			return ScanResult{}, fmt.Errorf("core: %s at size %d: %w", cfg.Bench.Name, n, err)
		}
		if err := checkSummary(fmt.Sprintf("%s at size %d", cfg.Bench.Name, n), sum); err != nil {
			return ScanResult{}, err
		}
		cmp := stats.Compare(sum, base)
		sp := ScanPoint{
			Iterations: n,
			Ns:         cfg.Cal.Ns(n),
			Perf:       sum,
			P:          cmp.Ratio,
			PLo:        cmp.Lo,
			PHi:        cmp.Hi,
		}
		res.Points = append(res.Points, sp)
		pts = append(pts, fit.Point{A: sp.Ns, P: sp.P})
	}
	sens, err := fit.FitSensitivity(pts)
	if err != nil {
		return ScanResult{}, fmt.Errorf("core: fit for %s: %w", cfg.Bench.Name, err)
	}
	res.Sens = sens
	return res, nil
}

// ProbeResult is one fixed-size probe measurement.
type ProbeResult struct {
	Bench string
	Path  arch.PathID
	Rel   stats.Comparative
}

// FixedProbe injects a single large cost function (the paper uses 1024
// loop iterations for the kernel survey) into one code path and returns
// the relative performance against the nop base case.
func FixedProbe(bench *workload.Benchmark, env workload.Env, path arch.PathID,
	allPaths []arch.PathID, size int64, samples int, seed int64) (ProbeResult, error) {
	return Session{}.FixedProbe(bench, env, path, allPaths, size, samples, seed)
}

// FixedProbe runs the fixed-size probe through the session's backend.
func (s Session) FixedProbe(bench *workload.Benchmark, env workload.Env, path arch.PathID,
	allPaths []arch.PathID, size int64, samples int, seed int64) (ProbeResult, error) {
	if samples <= 0 {
		samples = 6
	}
	base, err := s.Meas.Measure(bench, env.NopBase(allPaths), samples, seed)
	if err != nil {
		return ProbeResult{}, fmt.Errorf("core: probe base of %s: %w", bench.Name, err)
	}
	test, err := s.Meas.Measure(bench, env.WithCost([]arch.PathID{path}, allPaths, size), samples, seed)
	if err != nil {
		return ProbeResult{}, fmt.Errorf("core: probe of %s path %d: %w", bench.Name, path, err)
	}
	if err := checkSummary(fmt.Sprintf("probe of %s", bench.Name), base); err != nil {
		return ProbeResult{}, err
	}
	if err := checkSummary(fmt.Sprintf("probe of %s path %d", bench.Name, path), test); err != nil {
		return ProbeResult{}, err
	}
	return ProbeResult{Bench: bench.Name, Path: path, Rel: stats.Compare(test, base)}, nil
}

// Survey runs the fixed-probe measurement for every (benchmark, path)
// pair: the Figure 7/8 dataset (14 macros x 11 benchmarks = 154 points for
// the kernel).  The nop base case is measured once per benchmark and
// shared across its probes.
func Survey(benches []*workload.Benchmark, env workload.Env, paths []arch.PathID,
	size int64, samples int, seed int64) ([]ProbeResult, error) {
	return Session{}.Survey(benches, env, paths, size, samples, seed)
}

// Survey runs the fixed-probe survey through the session's backend.
func (s Session) Survey(benches []*workload.Benchmark, env workload.Env, paths []arch.PathID,
	size int64, samples int, seed int64) ([]ProbeResult, error) {
	if samples <= 0 {
		samples = 6
	}
	out := make([]ProbeResult, 0, len(benches)*len(paths))
	for _, b := range benches {
		base, err := s.Meas.Measure(b, env.NopBase(paths), samples, seed)
		if err != nil {
			return nil, fmt.Errorf("core: survey base of %s: %w", b.Name, err)
		}
		if err := checkSummary(fmt.Sprintf("survey base of %s", b.Name), base); err != nil {
			return nil, err
		}
		for _, p := range paths {
			test, err := s.Meas.Measure(b, env.WithCost([]arch.PathID{p}, paths, size), samples, seed)
			if err != nil {
				return nil, fmt.Errorf("core: survey of %s path %d: %w", b.Name, p, err)
			}
			if err := checkSummary(fmt.Sprintf("survey of %s path %d", b.Name, p), test); err != nil {
				return nil, err
			}
			out = append(out, ProbeResult{Bench: b.Name, Path: p, Rel: stats.Compare(test, base)})
		}
	}
	return out, nil
}

// SumByPath aggregates a survey across benchmarks for each path (Figure 7:
// lower sums mean bigger impact).
func SumByPath(rs []ProbeResult) map[arch.PathID]float64 {
	m := map[arch.PathID]float64{}
	for _, r := range rs {
		m[r.Path] += r.Rel.Ratio
	}
	return m
}

// SumByBench aggregates a survey across paths for each benchmark
// (Figure 8).
func SumByBench(rs []ProbeResult) map[string]float64 {
	m := map[string]float64{}
	for _, r := range rs {
		m[r.Bench] += r.Rel.Ratio
	}
	return m
}

// CompareStrategies measures the relative performance of a test
// environment against a base environment on one benchmark, both nop-padded
// over allPaths so binary size stays invariant.
func CompareStrategies(bench *workload.Benchmark, envBase, envTest workload.Env,
	allPaths []arch.PathID, samples int, seed int64) (stats.Comparative, error) {
	return Session{}.CompareStrategies(bench, envBase, envTest, allPaths, samples, seed)
}

// CompareStrategies runs the strategy comparison through the session's
// backend.
func (s Session) CompareStrategies(bench *workload.Benchmark, envBase, envTest workload.Env,
	allPaths []arch.PathID, samples int, seed int64) (stats.Comparative, error) {
	if samples <= 0 {
		samples = 6
	}
	base, err := s.Meas.Measure(bench, envBase.NopBase(allPaths), samples, seed)
	if err != nil {
		return stats.Comparative{}, fmt.Errorf("core: strategy base of %s: %w", bench.Name, err)
	}
	test, err := s.Meas.Measure(bench, envTest.NopBase(allPaths), samples, seed)
	if err != nil {
		return stats.Comparative{}, fmt.Errorf("core: strategy test of %s: %w", bench.Name, err)
	}
	if err := checkSummary(fmt.Sprintf("strategy base of %s", bench.Name), base); err != nil {
		return stats.Comparative{}, err
	}
	if err := checkSummary(fmt.Sprintf("strategy test of %s", bench.Name), test); err != nil {
		return stats.Comparative{}, err
	}
	return stats.Compare(test, base), nil
}

// CostOfChange converts a measured strategy-change performance into the
// per-invocation cost increase implied by the benchmark's fitted
// sensitivity (equation 2).  This is how §4.2.1 derives the 1.8 ns / 11.7
// ns StoreStore figures and §4.3.1 its rbd strategy cost table.
func CostOfChange(sens fit.Sensitivity, rel stats.Comparative) float64 {
	return fit.CostIncrease(sens.K, rel.Ratio)
}

// Stability classifies a scan the way §4.2.1 discusses benchmarks: a
// benchmark is a reasonable instrument for a code path when its fitted k
// is not too small and the fit error is bounded.
type Stability uint8

const (
	// Stable: usable for evaluating changes in the code path.
	Stable Stability = iota
	// Insensitive: k too small to resolve changes.
	Insensitive
	// Unstable: fit variance too high to trust.
	Unstable
)

// String names the stability class.
func (s Stability) String() string {
	switch s {
	case Stable:
		return "stable"
	case Insensitive:
		return "insensitive"
	default:
		return "unstable"
	}
}

// Classify applies the paper's informal criteria: "if k is comparatively
// low or variance is high, then the benchmark is not well suited to
// evaluating changes in the given code path".
func Classify(s fit.Sensitivity) Stability {
	switch {
	case s.K < 5e-4:
		return Insensitive
	case s.RelErr() > 0.12:
		return Unstable
	default:
		return Stable
	}
}
