package wmm_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/wmm"
)

func TestProfiles(t *testing.T) {
	ps := wmm.Profiles()
	if len(ps) != 2 || ps["arm"] == nil || ps["power"] == nil {
		t.Fatalf("Profiles() = %v", ps)
	}
	if wmm.ARMv8().Name != "armv8" || wmm.POWER7().Name != "power7" {
		t.Error("profile names wrong")
	}
	for _, name := range []string{"armv8", "power7"} {
		if p, err := wmm.ProfileByName(name); err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := wmm.ProfileByName("arm"); err == nil {
		t.Error("ProfileByName accepted the figure key \"arm\"")
	}
}

func TestBenchmarkRegistries(t *testing.T) {
	jvm := wmm.JVMBenchmarks()
	if len(jvm) != 8 {
		t.Errorf("JVM suite has %d benchmarks, want 8", len(jvm))
	}
	kern := wmm.KernelBenchmarks()
	if len(kern) != 11 {
		t.Errorf("kernel suite has %d benchmarks, want 11", len(kern))
	}
	for _, b := range jvm {
		got, err := wmm.JVMBenchmark(b.Name)
		if err != nil || got.Name != b.Name {
			t.Errorf("JVMBenchmark(%q): %v", b.Name, err)
		}
	}
	if _, err := wmm.JVMBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := wmm.KernelBenchmark("nope"); err == nil {
		t.Error("unknown kernel benchmark accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := wmm.Experiments()
	if len(exps) != 20 {
		t.Errorf("experiment registry has %d entries, want 20", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil || e.Desc == "" || e.Paper == "" {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
	for _, want := range []string{"fig1", "fig10", "txt7", "litmus"} {
		if !seen[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if err := wmm.RunExperiment("not-an-experiment", wmm.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPathHelpers(t *testing.T) {
	if len(wmm.JVMElementalPaths()) != 4 {
		t.Error("JVM elemental paths")
	}
	if len(wmm.KernelMacroPaths()) != 14 {
		t.Error("kernel macro paths")
	}
	if wmm.KernelPathName(wmm.KernelRBDPath()) != "read_barrier_depends" {
		t.Error("rbd path name")
	}
	if wmm.JVMAllBarriersPath() == 0 {
		t.Error("composite path id")
	}
}

func TestStrategyHelpers(t *testing.T) {
	if !wmm.JVMStrategyJDK9().UseAcqRel || wmm.JVMStrategyJDK8().UseAcqRel {
		t.Error("JVM strategies")
	}
	sts := wmm.KernelStrategies()
	if len(sts) != 6 || sts[0].Name != "base case" || sts[5].Name != "la/sr" {
		t.Errorf("kernel strategies: %v", sts)
	}
}

func TestModelHelpers(t *testing.T) {
	p := wmm.SensitivityModel(0.003, 100)
	if p <= 0 || p >= 1 {
		t.Errorf("model value %v", p)
	}
	a := wmm.CostIncrease(0.003, p)
	if a < 99 || a > 101 {
		t.Errorf("inverse gave %v, want ~100", a)
	}
	if len(wmm.DefaultScanSizes()) < 8 {
		t.Error("default sizes too few")
	}
}

func TestLitmusSuiteAccess(t *testing.T) {
	for _, profName := range []string{"armv8", "power7"} {
		suite := wmm.LitmusSuite(profName)
		if len(suite) < 14 {
			t.Errorf("%s litmus suite has %d tests", profName, len(suite))
		}
		names := map[string]bool{}
		for _, test := range suite {
			names[test.Name] = true
		}
		if !names["MP"] || !names["SB"] || !names["CoRR"] {
			t.Errorf("%s suite missing canonical shapes", profName)
		}
	}
}

// TestEndToEndMachine exercises the facade's machine surface.
func TestEndToEndMachine(t *testing.T) {
	m, err := wmm.NewMachine(wmm.ARMv8(), wmm.MachineConfig{Cores: 1, MemWords: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := wmm.NewBuilder()
	b.MovImm(0, 7)
	b.Fence(wmm.DMBIsh)
	b.Store(0, 1, 16)
	b.Halt()
	if err := m.LoadProgram(0, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(100_000)
	if err != nil || !res.AllHalted {
		t.Fatalf("run: %v halted=%v", err, res.AllHalted)
	}
	if m.ReadMem(16) != 7 {
		t.Errorf("mem[16] = %d", m.ReadMem(16))
	}
}

// TestExperimentSmoke runs the two cheapest experiments end to end through
// the facade.
func TestExperimentSmoke(t *testing.T) {
	var sb strings.Builder
	opt := wmm.ExperimentOptions{Short: true, Out: &sb, Seed: 1}
	for _, name := range []string{"txt3", "fig4"} {
		if err := wmm.RunExperiment(name, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := sb.String()
	for _, want := range []string{"lwsync", "Figure 4", "arm-nostack"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
}

func TestEngineFacade(t *testing.T) {
	eng := wmm.NewEngine(wmm.EngineOptions{Workers: 2})
	defer eng.Close()
	results, err := eng.Run(context.Background(), []string{"fig4", "txt3"},
		wmm.EngineRunOptions{Short: true, Samples: 2, Seed: 1, Parallel: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Experiment != "fig4" || results[1].Experiment != "txt3" {
		t.Fatalf("engine results out of order: %+v", results)
	}
	if !strings.Contains(results[0].Output, "Figure 4") {
		t.Errorf("fig4 output missing table: %q", results[0].Output)
	}

	raw, err := wmm.RunExperimentJSON(context.Background(),
		"fig4", wmm.ExperimentOptions{Short: true, Samples: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var r wmm.EngineResult
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("RunExperimentJSON returned invalid JSON: %v", err)
	}
	if r.Experiment != "fig4" || len(r.Tables) != 1 {
		t.Errorf("structured result = %q with %d tables", r.Experiment, len(r.Tables))
	}
}

func TestC11Facade(t *testing.T) {
	if len(wmm.C11Paths()) != 7 {
		t.Error("c11 paths")
	}
	g := wmm.NewC11(wmm.ARMv8(), true)
	b := wmm.NewBuilder()
	g.Load(b, wmm.Acquire, 2, 1, 0)
	g.Store(b, wmm.Release, 2, 1, 8)
	if b.Len() == 0 {
		t.Error("c11 generator emitted nothing")
	}
	sb := wmm.C11StackBenchmark("s", wmm.ReleaseAcquireStack())
	if sb == nil || sb.Name != "s" {
		t.Error("stack benchmark")
	}
	cb := wmm.C11CounterBenchmark("c", wmm.SeqCst)
	if cb == nil {
		t.Error("counter benchmark")
	}
	if _, err := wmm.MeasureBenchmark(cb, wmm.DefaultEnv(wmm.ARMv8()), 1, 1); err != nil {
		t.Errorf("counter run: %v", err)
	}
}
