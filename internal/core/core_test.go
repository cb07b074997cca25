package core_test

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/javabench"
	"repro/internal/workload/linuxbench"
)

var scanSizes = []int64{1, 16, 64, 256}

func calibration(t *testing.T, prof *arch.Profile) core.Calibration {
	t.Helper()
	cal, err := core.Calibrate(prof, scanSizes, 1)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	return cal
}

// TestSensitivityScanRecoversSpark runs the full §3 pipeline on the spark
// stand-in and checks the fitted k lands in the calibrated neighbourhood
// of the paper's value (0.0087 on ARM), and that the scan points decrease
// with cost size.
func TestSensitivityScanRecoversSpark(t *testing.T) {
	prof := arch.ARMv8()
	res, err := core.Session{}.SensitivityScan(core.ScanConfig{
		Bench:     javabench.Spark(),
		Env:       workload.DefaultEnv(prof),
		CostPaths: []arch.PathID{jvm.PathAnyBarrier},
		AllPaths:  []arch.PathID{jvm.PathAnyBarrier},
		Sizes:     scanSizes,
		Samples:   3,
		Seed:      3,
		Cal:       calibration(t, prof),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sens.K < 0.004 || res.Sens.K > 0.018 {
		t.Errorf("spark k = %v, want near the paper's 0.0087", res.Sens.K)
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].P > res.Points[i-1].P+0.05 {
			t.Errorf("relative performance rose with cost: %v then %v",
				res.Points[i-1].P, res.Points[i].P)
		}
	}
	t.Logf("spark scan: %v", res.Sens)
}

// TestScanRequiresCalibration checks the error path.
func TestScanRequiresCalibration(t *testing.T) {
	_, err := core.Session{}.SensitivityScan(core.ScanConfig{
		Bench: javabench.Spark(),
		Env:   workload.DefaultEnv(arch.ARMv8()),
	})
	if err == nil {
		t.Fatal("expected missing-calibration error")
	}
}

// TestFixedProbeDirection checks a probe into a hot macro slows netperf
// far more than one into a cold macro.
func TestFixedProbeDirection(t *testing.T) {
	prof := arch.ARMv8()
	env := workload.DefaultEnv(prof)
	bench := linuxbench.NetperfUDP()
	hot, err := core.Session{}.FixedProbe(bench, env, kernel.PathReadOnce, kernel.Paths, 1024, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Session{}.FixedProbe(bench, env, kernel.PathWMB, kernel.Paths, 1024, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Rel.Ratio >= cold.Rel.Ratio {
		t.Errorf("read_once probe (%.4f) should hurt more than wmb probe (%.4f)",
			hot.Rel.Ratio, cold.Rel.Ratio)
	}
}

// TestSurveyAggregation checks SumByPath/SumByBench arithmetic.
func TestSurveyAggregation(t *testing.T) {
	rs := []core.ProbeResult{
		{Bench: "a", Path: 1, Rel: stats.Comparative{Ratio: 0.9}},
		{Bench: "a", Path: 2, Rel: stats.Comparative{Ratio: 1.0}},
		{Bench: "b", Path: 1, Rel: stats.Comparative{Ratio: 0.8}},
		{Bench: "b", Path: 2, Rel: stats.Comparative{Ratio: 0.95}},
	}
	byPath := core.SumByPath(rs)
	if math.Abs(byPath[1]-1.7) > 1e-9 || math.Abs(byPath[2]-1.95) > 1e-9 {
		t.Errorf("SumByPath = %v", byPath)
	}
	byBench := core.SumByBench(rs)
	if math.Abs(byBench["a"]-1.9) > 1e-9 || math.Abs(byBench["b"]-1.75) > 1e-9 {
		t.Errorf("SumByBench = %v", byBench)
	}
}

// TestCompareStrategiesDetectsHeavySS checks the TXT2 lever: lowering
// StoreStore to the full barrier must cost performance on POWER (the paper
// measures a 12.5% drop on spark).
func TestCompareStrategiesDetectsHeavySS(t *testing.T) {
	prof := arch.POWER7()
	base := workload.DefaultEnv(prof)
	test := base
	st := test.JVMStrategy
	st.HeavyStoreStore = true
	test.JVMStrategy = st
	rel, err := core.Session{}.CompareStrategies(javabench.Spark(), base, test,
		[]arch.PathID{jvm.PathAnyBarrier}, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Ratio >= 1.0 {
		t.Errorf("lwsync→hwsync StoreStore should slow spark on POWER, got %v", rel)
	}
	t.Logf("POWER heavy StoreStore: %v", rel)
}

// TestCostOfChange checks the equation-2 bridge with the paper's §4.2.1
// numbers.
func TestCostOfChange(t *testing.T) {
	a := core.CostOfChange(
		fit.Sensitivity{K: 0.01332662},
		stats.Comparative{Ratio: 0.87530})
	if math.Abs(a-11.7) > 0.2 {
		t.Errorf("cost of change = %.2f ns, paper computes ~11.7 ns", a)
	}
}

// TestClassify checks the stability classes.
func TestClassify(t *testing.T) {
	if got := core.Classify(fit.Sensitivity{K: 0.005, StdErr: 0.0001}); got != core.Stable {
		t.Errorf("stable case classified %v", got)
	}
	if got := core.Classify(fit.Sensitivity{K: 0.0001, StdErr: 0.000001}); got != core.Insensitive {
		t.Errorf("insensitive case classified %v", got)
	}
	if got := core.Classify(fit.Sensitivity{K: 0.005, StdErr: 0.002}); got != core.Unstable {
		t.Errorf("unstable case classified %v", got)
	}
}
