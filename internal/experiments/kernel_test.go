package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/stats"
	"repro/internal/workload"
)

// surveyRuntime answers every measurement at once.  A summary is a pure
// function of the benchmark, the path carrying the injected cost and the
// sampling mode, so two surveys print the same sums exactly when they
// measured the same things the same way.
type surveyRuntime struct{}

func surveySummary(b *workload.Benchmark, env workload.Env, n int, adaptive bool) stats.Summary {
	perf := 100 + float64(len(b.Name))
	for p, inj := range env.Inject {
		if inj.Mode == costfn.InjectCost {
			perf -= float64(p) + 1
		}
	}
	if adaptive {
		perf += 0.5
	}
	return stats.Summary{N: n, Mean: perf, GeoMean: perf, Lo: perf, Hi: perf, Min: perf, Max: perf}
}

func (surveyRuntime) Measure(_ context.Context, b *workload.Benchmark, env workload.Env, n int, _ int64) (stats.Summary, error) {
	return surveySummary(b, env, n, false), nil
}

func (surveyRuntime) MeasureAdaptive(_ context.Context, b *workload.Benchmark, env workload.Env, rule stats.StopRule, _ int64) (stats.Summary, error) {
	return surveySummary(b, env, rule.MinSamples, true), nil
}

func (surveyRuntime) Calibration(context.Context, *arch.Profile, []int64, int64) (core.Calibration, error) {
	return core.Calibration{}, errors.New("the kernel survey needs no calibration")
}

// TestKernelSurveyMeasuredPerDriver pins that Figures 7 and 8 each
// measure their survey through the Runtime: a driver reports the same
// work and the same table whether it runs alone or after the other one
// in the same process, and an adaptive survey is never answered with a
// fixed-sample one.
func TestKernelSurveyMeasuredPerDriver(t *testing.T) {
	run := func(driver func(Options) error, adaptive *stats.StopRule) (string, Collector) {
		var out strings.Builder
		var c Collector
		o := Options{Short: true, Samples: 2, Seed: 1, Out: &out, RT: surveyRuntime{}, Collect: &c, Adaptive: adaptive}
		if err := driver(o); err != nil {
			t.Fatal(err)
		}
		return out.String(), c
	}
	rule := &stats.StopRule{RelPrecision: 0.001, MinSamples: 2, MaxSamples: 4}

	fig7, c7 := run(Fig7, nil)
	fig8, c8 := run(Fig8, rule)
	fixed8, cf := run(Fig8, nil)
	// Four short benchmarks, each measured once as the base and once per
	// macro, at 2 samples (the adaptive rule's floor).
	const measurements = 4 * 15
	for name, c := range map[string]Collector{"fig7": c7, "adaptive fig8": c8, "fixed fig8": cf} {
		if c.Measurements != measurements || c.Samples != 2*measurements {
			t.Errorf("%s counted %d measurements and %d samples, want %d and %d",
				name, c.Measurements, c.Samples, measurements, 2*measurements)
		}
	}
	if fixed8 == fig8 {
		t.Error("adaptive fig8 printed the fixed-sample survey's sums")
	}
	if again, c := run(Fig7, nil); again != fig7 || c.Measurements != c7.Measurements {
		t.Errorf("fig7 after fig8 counted %d measurements (alone: %d); same table as alone: %v",
			c.Measurements, c7.Measurements, again == fig7)
	}
	if again, c := run(Fig8, rule); again != fig8 || c.Measurements != c8.Measurements {
		t.Errorf("adaptive fig8 after fig7 counted %d measurements (alone: %d); same table as alone: %v",
			c.Measurements, c8.Measurements, again == fig8)
	}
}
