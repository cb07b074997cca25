package optimize

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
)

// TestJVMRankingARMv8 pins the paper's headline result through the whole
// optimizer: on the ARMv8 MCA profile with the volatile-heavy mix, the
// JDK9 ldar/stlr strategy is sound and outranks the JDK8 dmb-bracketed
// strategy, while the deliberately-weakened hybrid (trailing StoreLoad
// dropped) is rejected by the litmus gate with a recorded witness.
func TestJVMRankingARMv8(t *testing.T) {
	rep, err := Run(Spec{Platform: "jvm", Arch: "armv8"})
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	var nosl *CandidateReport
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		rank[c.Name] = c.Rank
		if c.Name == "hybrid-ldar+dmb-nosl" {
			nosl = c
		}
	}

	if rank["jdk9-acqrel"] == 0 {
		t.Fatal("jdk9-acqrel rejected by the gate; want sound")
	}
	if rank["jdk8-barriers"] == 0 {
		t.Fatal("jdk8-barriers rejected by the gate; want sound")
	}
	if rank["jdk9-acqrel"] >= rank["jdk8-barriers"] {
		t.Errorf("jdk9-acqrel ranked %d, jdk8-barriers %d; want jdk9 above jdk8",
			rank["jdk9-acqrel"], rank["jdk8-barriers"])
	}
	if rep.Best != "jdk9-acqrel" {
		t.Errorf("best = %q, want jdk9-acqrel", rep.Best)
	}

	if nosl == nil {
		t.Fatal("hybrid-ldar+dmb-nosl missing from report")
	}
	if nosl.Sound || nosl.Rank != 0 {
		t.Errorf("weakened hybrid: sound=%v rank=%d, want rejected", nosl.Sound, nosl.Rank)
	}
	if nosl.Perf != nil {
		t.Error("weakened hybrid was measured; unsound candidates must not be scored")
	}
	var witnessed bool
	for _, g := range nosl.Gate {
		if g.Shape == "volatile-sb" && !g.Sound {
			if g.Outcome == "" || g.Witness == "" {
				t.Errorf("volatile-sb rejection lacks outcome/witness: %+v", g)
			}
			witnessed = true
		}
	}
	if !witnessed {
		t.Error("weakened hybrid not rejected on volatile-sb")
	}
}

// TestKernelRankingARMv8 pins §4.3: every read_barrier_depends
// implementation is sound on ARMv8 (the address dependency already orders
// the RCU dereference), so the optimizer picks the free base case and the
// paid-for barriers rank below it.
func TestKernelRankingARMv8(t *testing.T) {
	rep, err := Run(Spec{Platform: "kernel", Arch: "armv8"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unsound != 0 {
		t.Errorf("%d kernel strategies rejected; all six should be sound on armv8", rep.Unsound)
	}
	if rep.Best != "base case" {
		t.Errorf("best = %q, want \"base case\" (read_barrier_depends buys nothing on ARMv8)", rep.Best)
	}
	rank := map[string]int{}
	for _, c := range rep.Candidates {
		rank[c.Name] = c.Rank
	}
	if rank["dmb ish"] <= rank["base case"] {
		t.Errorf("dmb ish ranked %d vs base case %d; the full barrier must not win", rank["dmb ish"], rank["base case"])
	}
}

// TestC11RankingARMv8 checks the C11 mapping choice: both per-arch
// mappings pass the gate and the ldar/stlr mapping wins on ARMv8.
func TestC11RankingARMv8(t *testing.T) {
	rep, err := Run(Spec{Platform: "c11", Arch: "armv8"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unsound != 0 {
		t.Errorf("%d c11 strategies rejected; both mappings are sound", rep.Unsound)
	}
	if rep.Best != "acq-rel" {
		t.Errorf("best = %q, want acq-rel on armv8", rep.Best)
	}
}

// TestDefaultGateExplorerWork pins the explorer work behind the default
// JVM gate on ARMv8 — every default candidate through every gate shape —
// so a change to the explorer or the simulator that moves it shows up
// here rather than as a different optimize report.
func TestDefaultGateExplorerWork(t *testing.T) {
	sp := Spec{Platform: "jvm", Arch: "armv8"}.WithDefaults()
	cands, err := sp.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	runs, states := 0, 0
	for _, c := range cands {
		gate, err := RunGate(sp, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gate {
			runs += g.Runs
			states += g.States
		}
	}
	if runs != 5254 || states != 3922 {
		t.Errorf("default JVM gate explored %d runs and %d states, want 5254 and 3922", runs, states)
	}
}

// TestPlatformGolden pins every platform × arch pair end to end: the
// explorer work of its default gate (runs and states summed over every
// default candidate and shape, read back from the report) and the sha256
// of a short default job's canonical report.  A change to how a platform
// is defined, its gate programs or its scoring workload moves one of
// them.
func TestPlatformGolden(t *testing.T) {
	golden := []struct {
		platform, arch string
		runs, states   int
		sha256         string
	}{
		{"jvm", "armv8", 5254, 3922,
			"9fd12f097cccce94f181c058a95d2d6feb13e03b19257870338b72ae5b764195"},
		{"jvm", "power7", 22374, 20922,
			"5f8110b5ef53e901e1f0c0446fa4906c69ac64817ec8aa42ba290a6dfbb1ba9b"},
		{"kernel", "armv8", 5746, 4294,
			"bb7f902abc937f460710b051689fa368ad91fac791abc543129e9bf581b36dce"},
		{"kernel", "power7", 18947, 17495,
			"0d2a4fb2ccb78791024871c0729c2063e0efb1a358fa76db57c666b12bfb05de"},
		{"c11", "armv8", 1922, 1438,
			"5ab10a489665dd73cc4552b9c642c40443504e799af0f98a8e0cced1a5578e99"},
		{"c11", "power7", 7174, 6690,
			"170297782abde776e6dc0e7c885a796b930f3bd29f4c89f35cb124054c0c71ff"},
	}
	for _, g := range golden {
		t.Run(g.platform+"/"+g.arch, func(t *testing.T) {
			rep, err := Run(Spec{
				Platform: g.platform,
				Arch:     g.arch,
				Samples:  2,
				FitCosts: []int64{8, 128},
				Workload: WorkloadSpec{MaxCycles: 10_000},
			})
			if err != nil {
				t.Fatal(err)
			}
			runs, states := 0, 0
			for _, c := range rep.Candidates {
				for _, o := range c.Gate {
					runs += o.Runs
					states += o.States
				}
			}
			if runs != g.runs || states != g.states {
				t.Errorf("default gate explored %d runs and %d states, want %d and %d", runs, states, g.runs, g.states)
			}
			data, err := rep.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != g.sha256 {
				t.Errorf("canonical report sha256 %s, want %s", got, g.sha256)
			}
		})
	}
}

// TestReportByteIdentity pins the determinism contract: the same spec and
// seed produce byte-identical canonical reports across runs.
func TestReportByteIdentity(t *testing.T) {
	spec := Spec{
		Platform:   "jvm",
		Arch:       "armv8",
		Strategies: []string{"jdk8-barriers", "jdk9-acqrel", "hybrid-ldar+dmb-nosl"},
		Samples:    3,
		FitCosts:   []int64{8, 32},
		Workload:   WorkloadSpec{MaxCycles: 60_000},
		Seed:       7,
	}
	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("canonical reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b1, b2)
	}
	if !bytes.HasSuffix(b1, []byte("\n")) {
		t.Error("canonical report must end with a newline")
	}
}

// TestCellsMatchLocalRun pins that executing the cells individually (the
// dispatcher's view) assembles into the exact report the in-process driver
// produces.
func TestCellsMatchLocalRun(t *testing.T) {
	spec := Spec{
		Platform:   "jvm",
		Arch:       "armv8",
		Strategies: []string{"jdk8-barriers", "jdk9-acqrel"},
		Samples:    3,
		FitCosts:   []int64{8, 32},
		Workload:   WorkloadSpec{MaxCycles: 60_000},
	}
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	sp := spec.WithDefaults()
	results := map[string]CellResult{}
	gates, err := sp.GateCells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range gates {
		res, err := RunCell(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[res.Cell] = res
	}
	sound, err := SoundNames(sp, results)
	if err != nil {
		t.Fatal(err)
	}
	score, err := sp.ScoreCells(sound)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range score {
		res, err := RunCell(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[res.Cell] = res
	}
	got, err := Assemble(sp, results)
	if err != nil {
		t.Fatal(err)
	}

	wb, _ := want.CanonicalJSON()
	gb, _ := got.CanonicalJSON()
	if !bytes.Equal(wb, gb) {
		t.Fatalf("cell-wise assembly differs from local run:\n%s\nvs\n%s", gb, wb)
	}
}

// TestSpecValidation pins the optimizer's input validation errors.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"bad platform", Spec{Platform: "rust"}, "unknown platform"},
		{"bad arch", Spec{Arch: "riscv"}, "unknown arch"},
		{"unknown strategy", Spec{Strategies: []string{"jdk8-barriers", "jdk11"}}, "unknown jvm strategies"},
		{"baseline excluded", Spec{Strategies: []string{"jdk9-acqrel"}}, "baseline"},
		{"bad mix op", Spec{Workload: WorkloadSpec{Mix: map[string]int{"rcu_derefs": 1}}}, "unknown mix operation"},
		{"vacuous mix", Spec{Workload: WorkloadSpec{Mix: map[string]int{"compute": 4}}}, "no jvm operations"},
		{"bad gate shape", Spec{Gate: GateSpec{Shapes: []string{"iriw"}}}, "unknown gate shape"},
		{"one fit cost", Spec{FitCosts: []int64{8}}, "fit_costs"},
		{"unsorted fit costs", Spec{FitCosts: []int64{32, 8}}, "increasing"},
		{"samples out of range", Spec{Samples: 100}, "samples"},
	}
	for _, tc := range cases {
		err := tc.spec.WithDefaults().Validate()
		if err == nil {
			t.Errorf("%s: validated; want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestMixNames sanity-checks the mix-name catalogue used by API docs.
func TestMixNames(t *testing.T) {
	for _, plat := range []string{"jvm", "kernel", "c11"} {
		names := MixNames(plat)
		if len(names) < 5 {
			t.Errorf("%s: only %d mix names", plat, len(names))
		}
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				t.Errorf("%s: duplicate mix name %q", plat, n)
			}
			seen[n] = true
		}
		if !seen["compute"] {
			t.Errorf("%s: missing common mix name \"compute\"", plat)
		}
	}
}

// gateProgramsGolden pins, per platform and arch, a digest of every
// thread program of every default candidate's gate tests, at stagger 0
// and at stagger 5, so a change to how a gate shape is built shows up as
// the platform whose instructions moved.  Values are the first 16 hex
// digits of the sha256.
var gateProgramsGolden = map[string]string{
	"jvm/armv8":     "42320be5869857df",
	"jvm/power7":    "0484ad2bfeb89ea4",
	"kernel/armv8":  "e5e59a2b4227d45e",
	"kernel/power7": "2785059f75b3fc45",
	"c11/armv8":     "ef1bd3cb2780c2f3",
	"c11/power7":    "ea56a640fc652728",
}

// TestGateProgramDigests checks gateProgramsGolden.  Each thread is
// assembled as litmus.Runner assembles it: setup, the alignment delay
// loop (skipped at stagger 0), body, halt.
func TestGateProgramDigests(t *testing.T) {
	for key, want := range gateProgramsGolden {
		platform, archName, _ := strings.Cut(key, "/")
		sp := Spec{Platform: platform, Arch: archName}.WithDefaults()
		prof, err := sp.Profile()
		if err != nil {
			t.Fatal(err)
		}
		cands, err := sp.Candidates()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		b := arch.NewBuilder()
		for _, c := range cands {
			for _, shape := range sp.Gate.Shapes {
				gs, _ := platforms[platform].gate(shape)
				for th, thread := range gs.build(c.env(prof)).Threads {
					for _, stagger := range []int64{0, 5} {
						b.Reset()
						if thread.Setup != nil {
							thread.Setup(b)
						}
						if stagger > 0 {
							b.MovImm(27, stagger)
							b.Label("litmus_delay")
							b.SubsImm(27, 27, 1)
							b.Bne("litmus_delay")
						}
						thread.Body(b)
						b.Halt()
						p, err := b.Build()
						if err != nil {
							t.Fatalf("%s %s/%s thread %d stagger %d: %v", key, c.Name, shape, th, stagger, err)
						}
						for _, in := range p.Code {
							fmt.Fprintf(h, "%d %d %d %d %d %d %d %d\n", in.Op, in.Rd, in.Rn, in.Rm, in.Imm, in.Target, in.Kind, in.Site)
						}
						h.Write([]byte{'\n'})
					}
				}
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want {
			t.Errorf("%q: %q, want %q", key, got, want)
		}
	}
}
