package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
)

// scenario is a reusable machine workload for equivalence testing: it
// covers the subsystems whose state Reset must restore and whose cycles the
// idle fast paths may skip (ALU chains, spin loops, fences, store buffers,
// exclusives, warmup accounting).
type scenario struct {
	name   string
	cores  int
	mem    int
	warmup int64
	record bool
	max    int64
	load   func(t *testing.T, m *Machine)
}

func scenarios(prof *arch.Profile) []scenario {
	full := arch.DMBIsh
	stFence := arch.DMBIshSt
	if prof.Flavor == arch.NonMCA {
		full = arch.HwSync
		stFence = arch.LwSync
	}
	return []scenario{
		{name: "alu-loop", cores: 1, mem: 1024, max: 1_000_000,
			load: func(t *testing.T, m *Machine) {
				b := arch.NewBuilder()
				b.MovImm(0, 0)
				b.MovImm(1, 500)
				b.Label("loop")
				b.Add(0, 0, 1)
				b.Mul(2, 0, 1)
				b.SubsImm(1, 1, 1)
				b.Bne("loop")
				b.Store(0, 3, 10)
				b.Halt()
				mustLoad(t, m, 0, b.MustBuild())
			}},
		{name: "mp-fenced", cores: 2, mem: 1024, max: 2_000_000,
			load: func(t *testing.T, m *Machine) {
				w := arch.NewBuilder()
				w.MovImm(0, 1)
				w.Store(0, 1, 0)
				w.Fence(full)
				w.Store(0, 1, 64)
				w.Halt()
				r := arch.NewBuilder()
				r.Label("spin")
				r.Load(2, 1, 64)
				r.CmpImm(2, 1)
				r.Bne("spin")
				r.Fence(full)
				r.Load(3, 1, 0)
				r.Store(3, 1, 128)
				r.Halt()
				mustLoad(t, m, 0, w.MustBuild())
				mustLoad(t, m, 1, r.MustBuild())
			}},
		{name: "contended-exclusives", cores: 4, mem: 2048, max: 4_000_000,
			load: func(t *testing.T, m *Machine) {
				for c := 0; c < 4; c++ {
					b := arch.NewBuilder()
					b.MovImm(5, 20) // iterations
					b.Label("again")
					b.Label("acq")
					b.LoadEx(0, 1, 0)
					b.CmpImm(0, 0)
					b.Bne("acq")
					b.MovImm(0, 1)
					b.StoreEx(2, 0, 1, 0)
					b.CmpImm(2, 0)
					b.Bne("acq")
					b.Load(3, 1, 8)
					b.AddImm(3, 3, 1)
					b.Store(3, 1, 8)
					b.Fence(stFence)
					b.MovImm(0, 0)
					b.StoreRel(0, 1, 0)
					b.SubsImm(5, 5, 1)
					b.Bne("again")
					b.Halt()
					mustLoad(t, m, c, b.MustBuild())
				}
			}},
		// Dependent load chains hard-block the window while fetch keeps
		// adding independent instructions until it fills: the cycle where
		// the scan proves all-hard but fetch then inserts an issueable
		// entry is exactly where a stale hard-block proof would let the
		// fast path skip an RNG draw.
		{name: "dep-chase-fill", cores: 2, mem: 2048, max: 2_000_000,
			load: func(t *testing.T, m *Machine) {
				for c := 0; c < 2; c++ {
					b := arch.NewBuilder()
					b.MovImm(2, int64(c*128))
					b.MovImm(5, 300)
					b.Label("loop")
					for k := 0; k < 6; k++ {
						b.Load(2, 2, 0)
					}
					b.MovImm(7, 42)
					b.Store(7, 1, int64(c*64+32))
					b.SubsImm(5, 5, 1)
					b.Bne("loop")
					b.Halt()
					mustLoad(t, m, c, b.MustBuild())
				}
			}},
		{name: "warmup-work", cores: 2, mem: 1024, warmup: 5_000, record: true, max: 40_000,
			load: func(t *testing.T, m *Machine) {
				for c := 0; c < 2; c++ {
					b := arch.NewBuilder()
					b.MovImm(0, 0)
					b.Label("loop")
					b.Work(1)
					b.Load(2, 1, int64(c*64))
					b.AddImm(2, 2, 3)
					b.Store(2, 1, int64(c*64))
					b.Fence(stFence)
					b.AddImm(0, 0, 1)
					b.B("loop")
					mustLoad(t, m, c, b.MustBuild())
				}
			}},
	}
}

// snapshot captures everything observable about a finished run.
type snapshot struct {
	res   Result
	err   string
	cores []CoreStats
	works [][]int64
	sites []uint64
	mem   []int64
	regs  [][arch.NumRegs]int64
}

func runSnapshot(t *testing.T, m *Machine, sc scenario) snapshot {
	t.Helper()
	sc.load(t, m)
	res, err := m.Run(sc.max)
	s := snapshot{res: res}
	if err != nil {
		s.err = err.Error()
	}
	s.cores = append([]CoreStats(nil), res.Cores...)
	for i := range s.cores {
		s.works = append(s.works, append([]int64(nil), s.cores[i].WorkTimes...))
		s.cores[i].WorkTimes = nil
	}
	s.sites = append([]uint64(nil), res.SiteCounts...)
	s.res.Cores, s.res.SiteCounts = nil, nil
	for a := int64(0); a < int64(sc.mem); a++ {
		s.mem = append(s.mem, m.ReadMem(a))
	}
	for c := 0; c < sc.cores; c++ {
		var r [arch.NumRegs]int64
		for i := 0; i < int(arch.NumRegs); i++ {
			r[i] = m.Reg(c, arch.Reg(i))
		}
		s.regs = append(s.regs, r)
	}
	return s
}

func diffSnapshots(t *testing.T, label string, want, got snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: snapshots differ\nwant result %+v err %q cores %+v\ngot  result %+v err %q cores %+v",
			label, want.res, want.err, want.cores, got.res, got.err, got.cores)
	}
}

func newMachine(t *testing.T, prof *arch.Profile, sc scenario, seed int64) *Machine {
	t.Helper()
	m, err := New(prof, Config{
		Cores: sc.cores, MemWords: sc.mem, Seed: seed,
		WarmupCycles: sc.warmup, RecordWork: sc.record,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// TestFastPathEquivalence proves the idle fast paths (hard-block idling and
// the machine-level cycle jump) change nothing observable: every scenario
// is run with the fast paths disabled and enabled and the full snapshots
// (cycles, stats, work times, site counts, memory, registers, errors) must
// match bit for bit.
func TestFastPathEquivalence(t *testing.T) {
	for name, prof := range arch.Profiles() {
		for _, sc := range scenarios(prof) {
			for seed := int64(1); seed <= 9; seed += 4 {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, sc.name, seed), func(t *testing.T) {
					debugForceSlowScan = true
					slow := runSnapshot(t, newMachine(t, prof, sc, seed), sc)
					debugForceSlowScan = false
					fast := runSnapshot(t, newMachine(t, prof, sc, seed), sc)
					diffSnapshots(t, "slow vs fast", slow, fast)
				})
			}
		}
	}
}

// TestResetMatchesNew proves a Reset machine is indistinguishable from a
// fresh one: after a dirty run with a different seed and scenario, Reset +
// rerun must reproduce the fresh machine's snapshot bit for bit, on both
// storage models.
func TestResetMatchesNew(t *testing.T) {
	for name, prof := range arch.Profiles() {
		scs := scenarios(prof)
		for i, sc := range scs {
			for seed := int64(2); seed <= 10; seed += 4 {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, sc.name, seed), func(t *testing.T) {
					fresh := runSnapshot(t, newMachine(t, prof, sc, seed), sc)

					// Dirty a machine of the same config with a different
					// seed on a different program, then Reset and rerun.
					reused := newMachine(t, prof, sc, seed+977)
					dirty := scs[(i+1)%len(scs)]
					if dirty.cores > sc.cores || dirty.mem > sc.mem {
						dirty = sc
					}
					dirty.load(t, reused)
					if _, err := reused.Run(50_000); err != nil {
						t.Fatalf("dirty run: %v", err)
					}
					reused.Reset(seed)
					again := runSnapshot(t, reused, sc)
					diffSnapshots(t, "fresh vs reset", fresh, again)

					// A second Reset with the same seed reproduces again.
					reused.Reset(seed)
					third := runSnapshot(t, reused, sc)
					diffSnapshots(t, "reset vs reset", fresh, third)
				})
			}
		}
	}
}

// TestResetClearsDenseWrites covers both ways Reset clears the written
// words: word by word in sparsely written 64-word blocks, and one clear
// per run of densely written blocks, including a run ending in a partial
// last block.  Afterwards every storage array must be zero and the
// machine must fingerprint (under the full-scan reference) as a fresh
// one does.
func TestResetClearsDenseWrites(t *testing.T) {
	const mem = 1000 // 15 full blocks and a partial one
	for name, prof := range arch.Profiles() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Cores: 2, MemWords: mem, Seed: 3}
			m, err := New(prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for a := int64(64); a < 300; a++ { // dense run across four blocks
				m.WriteMem(a, a)
			}
			for _, a := range []int64{500, 510, 700} { // sparse blocks
				m.WriteMem(a, 1)
			}
			for a := int64(900); a < mem; a++ { // dense, up to the partial tail
				m.WriteMem(a, a)
			}
			// Committed stores set the sequence and visibility arrays too.
			b := arch.NewBuilder()
			b.MovImm(2, 7)
			for a := int64(320); a < 400; a++ {
				b.Store(2, 1, a)
			}
			b.Halt()
			if err := m.LoadProgram(0, b.MustBuild()); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(100_000); err != nil {
				t.Fatal(err)
			}
			m.Reset(cfg.Seed)
			checkWrittenCovers(t, m)
			fresh, err := New(prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.referenceFingerprint() != fresh.referenceFingerprint() {
				t.Fatal("reset machine differs from a fresh one")
			}
		})
	}
}

// TestWarmupResetsAllCounters pins satellite semantics: every CoreStats
// counter covers the post-warmup window, while SiteCounts covers the whole
// run.
func TestWarmupResetsAllCounters(t *testing.T) {
	prof := arch.ARMv8()
	build := func() arch.Program {
		b := arch.NewBuilder()
		b.SetSite(arch.PathID(3))
		b.MovImm(0, 0)
		b.Label("loop")
		b.Work(1)
		b.Load(2, 1, 0)
		b.Store(2, 1, 0)
		b.AddImm(0, 0, 1)
		b.B("loop")
		return b.MustBuild()
	}
	warm, err := New(prof, Config{Cores: 1, MemWords: 256, Seed: 5, WarmupCycles: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.LoadProgram(0, build()); err != nil {
		t.Fatal(err)
	}
	resWarm, err := warm.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := New(prof, Config{Cores: 1, MemWords: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadProgram(0, build()); err != nil {
		t.Fatal(err)
	}
	resCold, err := cold.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}

	w, c := resWarm.Cores[0], resCold.Cores[0]
	if w.Retired == 0 || w.Loads == 0 || w.Stores == 0 {
		t.Fatalf("warmup run recorded no post-warmup activity: %+v", w)
	}
	// The warmed run's measurement window is half the cold run's cycles;
	// each counter must reflect only that window, so it must be strictly
	// below the cold run's total.
	if w.Retired >= c.Retired || w.Loads >= c.Loads || w.Stores >= c.Stores {
		t.Errorf("warmup did not reset counters: warm %+v vs cold %+v", w, c)
	}
	// SiteCounts accumulates over the whole run: the warmed machine's
	// count matches its full-run retirement, not the window.
	if len(resWarm.SiteCounts) <= 3 || resWarm.SiteCounts[3] <= w.Retired/8 {
		t.Errorf("SiteCounts should cover the whole run: %v (window stats %+v)", resWarm.SiteCounts, w)
	}
}

// TestCountSiteGrowth pins the geometric growth policy: interleaved high
// and low site ids must not re-copy the table on every high-site access,
// and counts must stay exact.
func TestCountSiteGrowth(t *testing.T) {
	m := &Machine{}
	const high = 1000
	for i := 0; i < 200; i++ {
		m.countSite(0, arch.PathID(1+i%2))
		m.countSite(0, arch.PathID(high-i))
	}
	if got := m.siteCounts[1] + m.siteCounts[2]; got != 200 {
		t.Errorf("low-site counts = %d, want 200", got)
	}
	var sum uint64
	for s := high - 199; s <= high; s++ {
		sum += m.siteCounts[s]
	}
	if sum != 200 {
		t.Errorf("high-site counts = %d, want 200", sum)
	}
	if len(m.siteCounts) > 4*high {
		t.Errorf("growth overshot: len=%d", len(m.siteCounts))
	}
	// Growth is geometric: growing one element at a time from a large
	// table must at least double it.
	before := len(m.siteCounts)
	m.countSite(0, arch.PathID(before))
	if len(m.siteCounts) < 2*before {
		t.Errorf("growth not geometric: %d -> %d", before, len(m.siteCounts))
	}
}

// TestResultReusesBacking pins the zero-alloc contract: consecutive runs of
// a reused machine return Results whose Cores share backing storage.
func TestResultReusesBacking(t *testing.T) {
	prof := arch.ARMv8()
	sc := scenarios(prof)[0]
	m := newMachine(t, prof, sc, 1)
	sc.load(t, m)
	res1, err := m.Run(sc.max)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset(2)
	sc.load(t, m)
	res2, err := m.Run(sc.max)
	if err != nil {
		t.Fatal(err)
	}
	if &res1.Cores[0] != &res2.Cores[0] {
		t.Error("Result.Cores was reallocated across a Reset-reuse cycle")
	}
}
