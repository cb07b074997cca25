package experiments

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/platform/kernel"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/linuxbench"
)

// kernelProfile: the paper's kernel experiments all run on the ARMv8
// machine (§4.3).
func kernelProfile() *arch.Profile { return arch.ARMv8() }

// surveySize is the fixed cost-function size for the Figure 7/8 survey
// ("we inject a large cost function (1024 loop iterations) into each macro
// in turn").
const surveySize = 1024

// runKernelSurvey measures the Figure 7/8 dataset.  Each figure measures
// it afresh through the Runtime, so a driver's results and work counts do
// not depend on which other drivers share its process.
func runKernelSurvey(o Options) ([]core.ProbeResult, error) {
	benches := linuxbench.Suite()
	if o.Short {
		benches = benches[:4]
	}
	return o.survey(benches, workload.DefaultEnv(kernelProfile()), kernel.Paths, surveySize)
}

// Fig7 regenerates Figure 7: the sum of relative performance across all
// benchmarks per macro; lower sums mean larger impact.  The paper finds
// smp_mb, read_once and read_barrier_depends have the most impact.
func Fig7(o Options) error {
	rs, err := runKernelSurvey(o)
	if err != nil {
		return err
	}
	sums := core.SumByPath(rs)
	order := append([]arch.PathID{}, kernel.Paths...)
	sort.SliceStable(order, func(i, j int) bool { return sums[order[i]] < sums[order[j]] })
	t := report.New("Figure 7: summed relative performance per macro (ascending = biggest impact first)",
		"macro", "sum of relative perf")
	for _, p := range order {
		t.Addf("%s\t%.3f", kernel.PathName(p), sums[p])
	}
	t.Note("paper's biggest-impact macros: smp_mb, read_once, read_barrier_depends")
	o.emit(t)
	return nil
}

// Fig8 regenerates Figure 8: the sum of relative performance across all
// macros per benchmark.  The paper finds the microbenchmarks (netperf,
// lmbench, ebizzy) most sensitive and the re-hosted JVM benchmarks (h2,
// spark) almost completely insensitive.
func Fig8(o Options) error {
	rs, err := runKernelSurvey(o)
	if err != nil {
		return err
	}
	sums := core.SumByBench(rs)
	// Equal sums print in name order, not the map's.
	names := slices.Sorted(maps.Keys(sums))
	sort.SliceStable(names, func(i, j int) bool { return sums[names[i]] < sums[names[j]] })
	t := report.New("Figure 8: summed relative performance per benchmark (ascending = most sensitive first)",
		"benchmark", "sum of relative perf")
	for _, n := range names {
		t.Addf("%s\t%.3f", n, sums[n])
	}
	t.Note("paper's order: netperf_tcp, lmbench, netperf_udp, ebizzy, xalan, osm_stack(avg), osm_stack(max), osm_tiles, kernel_compile, spark, h2")
	o.emit(t)
	return nil
}

// paperFig9 carries the paper's rbd sensitivities for the comparison
// column.
var paperFig9 = map[string]string{
	"ebizzy": "0.00106±10%", "xalan": "0.00038±10%", "netperf_udp": "0.00943±8%",
	"osm_stack (avg)": "0.00019±10%", "lmbench": "0.00525±10%", "netperf_tcp": "0.00355±10%",
}

// Fig9 regenerates Figure 9: the sensitivity of the six selected
// benchmarks to the read_barrier_depends macro.
func Fig9(o Options) error {
	prof := kernelProfile()
	cal, err := o.calibration(prof, o.sizes())
	if err != nil {
		return err
	}
	t := report.New("Figure 9: sensitivity to read_barrier_depends (armv8)",
		"benchmark", "k (fitted)", "stability", "paper k")
	for _, b := range linuxbench.RBDSix() {
		res, err := o.scan(core.ScanConfig{
			Bench:     b,
			Env:       workload.DefaultEnv(prof),
			CostPaths: []arch.PathID{kernel.PathReadBarrierDepends},
			AllPaths:  kernel.Paths,
			Sizes:     o.sizes(),
			Samples:   o.samples(),
			Seed:      o.seed(),
			Cal:       cal,
		})
		if err != nil {
			return err
		}
		t.Addf("%s\t%v\t%s\t%s", b.Name, res.Sens, core.Classify(res.Sens), paperFig9[b.Name])
	}
	t.Note("shape: netperf_udp most sensitive; osm/xalan near-insensitive; tcp less stable than udp")
	o.emit(t)
	return nil
}

// Fig10 regenerates Figure 10: the relative performance of the five test
// implementations of read_barrier_depends (plus the base case) on the six
// benchmarks.
func Fig10(o Options) error {
	prof := kernelProfile()
	strategies := kernel.Strategies()
	t := report.New("Figure 10: read_barrier_depends strategy comparison (relative performance, armv8)",
		"benchmark", "ctrl", "ctrl+isb", "dmb ishld", "dmb ish", "la/sr")
	for _, b := range linuxbench.RBDSix() {
		baseEnv := workload.DefaultEnv(prof)
		row := []string{b.Name}
		for _, st := range strategies[1:] {
			env := baseEnv
			env.KernelStrategy = st
			rel, err := o.compare(b, baseEnv, env, kernel.Paths)
			if err != nil {
				return err
			}
			mark := ""
			if !rel.Significant() {
				mark = " (n.s.)"
			}
			row = append(row, fmt.Sprintf("%.4f%s", rel.Ratio, mark))
		}
		t.Add(row...)
	}
	t.Note("paper's shape: ctrl+isb always worst; ishld/ish small; xalan slightly improves with added ishld")
	o.emit(t)
	return nil
}

// Txt6 measures the kernel nop-padding cost: the paper reports a mean drop
// of 1.9% across benchmarks and a worst case of 6.6% (netperf).
func Txt6(o Options) error {
	prof := kernelProfile()
	t := report.New("TXT6 (armv8): nop padding in every kernel macro",
		"benchmark", "relative perf", "change")
	var ratios []float64
	for _, b := range linuxbench.Suite() {
		clean, err := o.measure(b, workload.DefaultEnv(prof))
		if err != nil {
			return err
		}
		padded, err := o.measure(b, workload.DefaultEnv(prof).NopBase(kernel.Paths))
		if err != nil {
			return err
		}
		rel := stats.Compare(padded, clean)
		ratios = append(ratios, rel.Ratio)
		t.Addf("%s\t%.5f\t%s", b.Name, rel.Ratio, report.Pct(rel.Ratio))
	}
	t.Note("mean %.2f%% (paper: mean -1.9%%, worst -6.6%% on netperf)", 100*(stats.Mean(ratios)-1))
	o.emit(t)
	return nil
}

// Txt7 regenerates the §4.3.1 cost table: for each rbd strategy, the
// implied per-invocation cost increase a (equation 2) computed from the
// lmbench microbenchmark and from the mean of the other five benchmarks —
// the micro/macro divergence analysis.
func Txt7(o Options) error {
	prof := kernelProfile()
	cal, err := o.calibration(prof, o.sizes())
	if err != nil {
		return err
	}
	benches := linuxbench.RBDSix()
	// Fit per-benchmark rbd sensitivities.
	sens := map[string]core.ScanResult{}
	for _, b := range benches {
		res, err := o.scan(core.ScanConfig{
			Bench:     b,
			Env:       workload.DefaultEnv(prof),
			CostPaths: []arch.PathID{kernel.PathReadBarrierDepends},
			AllPaths:  kernel.Paths,
			Sizes:     o.sizes(),
			Samples:   o.samples(),
			Seed:      o.seed(),
			Cal:       cal,
		})
		if err != nil {
			return err
		}
		sens[b.Name] = res
	}
	t := report.New("TXT7 (armv8): implied cost increase a of each rbd strategy (ns)",
		"strategy", "from lmbench", "mean of others", "paper (lmbench)", "paper (others)")
	paperL := map[string]string{"ctrl": "4.6", "ctrl+isb": "24.5", "dmb ishld": "10.7", "dmb ish": "11.0", "la/sr": "21.7"}
	paperO := map[string]string{"ctrl": "10.1", "ctrl+isb": "24.5", "dmb ishld": "1.8", "dmb ish": "10.7", "la/sr": "15.9"}
	skipped := map[string]bool{}
	for _, st := range kernel.Strategies()[1:] {
		var lm float64
		var others []float64
		for _, b := range benches {
			s := sens[b.Name].Sens
			if core.Classify(s) == core.Insensitive && b.Name != "lmbench" {
				// Equation (2) is meaningless through an instrument
				// that cannot resolve the code path (§4.2.1: "high
				// sensitivity benchmarks produce results which
				// accurately calculate the change in cost").
				skipped[b.Name] = true
				continue
			}
			baseEnv := workload.DefaultEnv(prof)
			env := baseEnv
			env.KernelStrategy = st
			rel, err := o.compare(b, baseEnv, env, kernel.Paths)
			if err != nil {
				return err
			}
			a := core.CostOfChange(s, rel)
			if b.Name == "lmbench" {
				lm = a
			} else {
				others = append(others, a)
			}
		}
		t.Addf("%s\t%.1f\t%.1f\t%s\t%s", st.Name, lm, stats.Mean(others), paperL[st.Name], paperO[st.Name])
	}
	var skippedNames []string
	for name := range skipped {
		skippedNames = append(skippedNames, name)
	}
	sort.Strings(skippedNames)
	for _, name := range skippedNames {
		t.Note("%s excluded from the macro mean: its rbd sensitivity is unresolved", name)
	}
	t.Note("divergence between the micro (lmbench) and macro estimates is the point: dmb ishld is nearly free in vivo")
	o.emit(t)
	return nil
}
