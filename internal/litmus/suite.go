package litmus

import "repro/internal/arch"

// The catalogue below follows the naming of Sarkar et al. / Alglave et al.:
// MP (message passing), SB (store buffering), LB (load buffering), CoRR /
// CoWW (per-location coherence), WRC (write-to-read causality), IRIW
// (independent reads of independent writes), 2+2W.  Variants append the
// ordering mechanism per thread, e.g. MP+ishst+ctl.
//
// Expectations encode the architectures' documented behaviour, which the
// simulator is required to match: see DESIGN.md §5 for the two deliberate
// deviations (LB relaxation and spin-loop MP on the MCA profile are not
// exhibited, like most real implementations).

// PrimeLines returns a Thread.Setup that loads each address once, so the
// test's races start on warmed lines.
func PrimeLines(addrs ...int64) func(*arch.Builder) {
	return func(b *arch.Builder) {
		for _, a := range addrs {
			b.Load(26, Base, a)
		}
	}
}

// mpWriter emits: X=1; <fence>; Y=1.
func mpWriter(fence arch.BarrierKind) Thread {
	return Thread{Body: func(b *arch.Builder) {
		b.MovImm(2, 1)
		b.Store(2, Base, X)
		b.Fence(fence)
		b.Store(2, Base, Y)
	}}
}

// mpWriterRel emits: X=1; stlr Y=1.
func mpWriterRel() Thread {
	return Thread{Body: func(b *arch.Builder) {
		b.MovImm(2, 1)
		b.Store(2, Base, X)
		b.StoreRel(2, Base, Y)
	}}
}

// Reader ordering mechanisms for the MP family.
type readerKind uint8

const (
	rdPlain readerKind = iota
	rdFence
	rdAddrDep
	rdCtrl
	rdCtrlISB
	rdAcquire
)

// mpReader emits: r2 = Y; <order>; r3 = X; record r2, r3.  The X line is
// primed so the data load can satisfy quickly relative to a missing flag.
func mpReader(kind readerKind, fence arch.BarrierKind) Thread {
	return Thread{
		Setup: PrimeLines(X),
		Body: func(b *arch.Builder) {
			if kind == rdAcquire {
				b.LoadAcq(2, Base, Y)
			} else {
				b.Load(2, Base, Y)
			}
			switch kind {
			case rdFence:
				b.Fence(fence)
			case rdAddrDep:
				// r4 = r2 ^ r2 = 0; r5 = base + r4: a true address
				// dependency that does not change the address.
				b.Eor(4, 2, 2)
				b.Add(5, Base, 4)
				b.Load(3, 5, X)
				b.Store(2, Base, ResultAddr(1, 0))
				b.Store(3, Base, ResultAddr(1, 1))
				return
			case rdCtrl, rdCtrlISB:
				// Control dependency: a conditional branch on the
				// loaded value over an impotent target (both paths
				// reach the load), per ARMv8 manual B2.7.4.
				b.CmpImm(2, 42)
				b.Bne("ctl")
				b.Label("ctl")
				if kind == rdCtrlISB {
					b.Fence(arch.ISB)
				}
			}
			b.Load(3, Base, X)
			b.Store(2, Base, ResultAddr(1, 0))
			b.Store(3, Base, ResultAddr(1, 1))
		},
	}
}

// MPRelaxed is the message-passing violation: the reader (thread 1) saw
// the flag but not the data it guards.
func MPRelaxed(mem func(int64) int64) bool {
	return mem(ResultAddr(1, 0)) == 1 && mem(ResultAddr(1, 1)) == 0
}

// MPHit is the message-passing precondition: the reader saw the flag.
func MPHit(mem func(int64) int64) bool { return mem(ResultAddr(1, 0)) == 1 }

// SBRelaxed is the store-buffering (Dekker) violation: both threads read
// the other's location as 0.
func SBRelaxed(mem func(int64) int64) bool {
	return mem(ResultAddr(0, 0)) == 0 && mem(ResultAddr(1, 0)) == 0
}

func mpTest(name string, w, r Thread, expect map[string]Expectation) *Test {
	return &Test{
		Name:    name,
		Threads: []Thread{w, r},
		Relaxed: MPRelaxed,
		Hit:     MPHit,
		Expect:  expect,
	}
}

func both(e Expectation) map[string]Expectation {
	return map[string]Expectation{"armv8": e, "power7": e}
}

func armOnly(e Expectation) map[string]Expectation {
	return map[string]Expectation{"armv8": e}
}

func powerOnly(e Expectation) map[string]Expectation {
	return map[string]Expectation{"power7": e}
}

// sbThread emits: mine=1; <fence>; r2 = other; record r2.
func sbThread(t int, mine, other int64, fence arch.BarrierKind) Thread {
	return Thread{
		Setup: PrimeLines(mine, other),
		Body: func(b *arch.Builder) {
			b.MovImm(2, 1)
			b.Store(2, Base, mine)
			b.Fence(fence)
			b.Load(3, Base, other)
			b.Store(3, Base, ResultAddr(t, 0))
		},
	}
}

// sbThreadRelAcq emits: stlr mine=1; r2 = ldar other; record r2 — the
// JDK9 / C11-SC volatile mapping, whose RCsc stlr→ldar ordering forbids
// the SB relaxation on ARMv8.
func sbThreadRelAcq(t int, mine, other int64) Thread {
	return Thread{
		Setup: PrimeLines(mine, other),
		Body: func(b *arch.Builder) {
			b.MovImm(2, 1)
			b.StoreRel(2, Base, mine)
			b.LoadAcq(3, Base, other)
			b.Store(3, Base, ResultAddr(t, 0))
		},
	}
}

func sbTest(name string, fence0, fence1 arch.BarrierKind, expect map[string]Expectation) *Test {
	return &Test{
		Name:    name,
		Threads: []Thread{sbThread(0, X, Y, fence0), sbThread(1, Y, X, fence1)},
		Relaxed: SBRelaxed,
		Expect:  expect,
	}
}

// wrcT2 spins until it reads X = 1, then (ordered by fence and by the data
// dependency through r2) stores Y = r2.
func wrcT2(fence arch.BarrierKind) Thread {
	return Thread{
		Setup: PrimeLines(X),
		Body: func(b *arch.Builder) {
			b.Label("wrc_spin")
			b.Load(2, Base, X)
			b.CmpImm(2, 1)
			b.Bne("wrc_spin")
			b.Fence(fence)
			b.Store(2, Base, Y)
		},
	}
}

// wrcT3 spins until it observes Y = 1, then reads X through an address
// dependency on the observed value and records both observations.
func wrcT3() Thread {
	return Thread{
		Setup: PrimeLines(X, Y),
		Body: func(b *arch.Builder) {
			b.Label("wrc_t3_spin")
			b.Load(3, Base, Y)
			b.CmpImm(3, 1)
			b.Bne("wrc_t3_spin")
			b.Eor(5, 3, 3)
			b.Add(6, Base, 5)
			b.Load(4, 6, X)
			b.Store(3, Base, ResultAddr(2, 0))
			b.Store(4, Base, ResultAddr(2, 1))
		},
	}
}

func wrcTest(name string, t2fence arch.BarrierKind, expect map[string]Expectation) *Test {
	w := Thread{Body: func(b *arch.Builder) {
		b.MovImm(2, 1)
		b.Store(2, Base, X)
	}}
	return &Test{
		Name:    name,
		Threads: []Thread{w, wrcT2(t2fence), wrcT3()},
		Relaxed: func(mem func(int64) int64) bool {
			return mem(ResultAddr(2, 0)) == 1 && mem(ResultAddr(2, 1)) == 0
		},
		Hit:    func(mem func(int64) int64) bool { return mem(ResultAddr(2, 0)) == 1 },
		Expect: expect,
	}
}

// iriwReader spins until it observes first = 1 (self-aligning, like a real
// litmus campaign's retry harness), then performs the ordered read of
// second and records both observations.
func iriwReader(t int, first, second int64, kind readerKind, fence arch.BarrierKind) Thread {
	return Thread{
		Setup: PrimeLines(first, second),
		Body: func(b *arch.Builder) {
			b.Label("iriw_spin")
			b.Load(2, Base, first)
			b.CmpImm(2, 1)
			b.Bne("iriw_spin")
			switch kind {
			case rdFence:
				b.Fence(fence)
				b.Load(3, Base, second)
			case rdAddrDep:
				b.Eor(5, 2, 2)
				b.Add(6, Base, 5)
				b.Load(3, 6, second)
			default:
				b.Load(3, Base, second)
			}
			b.Store(2, Base, ResultAddr(t, 0))
			b.Store(3, Base, ResultAddr(t, 1))
		},
	}
}

func iriwTest(name string, kind readerKind, fence arch.BarrierKind, expect map[string]Expectation) *Test {
	w1 := Thread{Body: func(b *arch.Builder) { b.MovImm(2, 1); b.Store(2, Base, X) }}
	w2 := Thread{Body: func(b *arch.Builder) { b.MovImm(2, 1); b.Store(2, Base, Y) }}
	return &Test{
		Name: name,
		Threads: []Thread{w1, w2,
			iriwReader(2, X, Y, kind, fence),
			iriwReader(3, Y, X, kind, fence)},
		Relaxed: func(mem func(int64) int64) bool {
			return mem(ResultAddr(2, 0)) == 1 && mem(ResultAddr(2, 1)) == 0 &&
				mem(ResultAddr(3, 0)) == 1 && mem(ResultAddr(3, 1)) == 0
		},
		Expect: expect,
	}
}

// Suite returns the litmus tests relevant to the named profile ("armv8" or
// "power7"), each with an expectation for that profile.
func Suite(profile string) []*Test {
	var ts []*Test
	add := func(t *Test) {
		if _, ok := t.Expect[profile]; ok {
			ts = append(ts, t)
		}
	}

	// --- Message passing ------------------------------------------------
	add(mpTest("MP", mpWriter(arch.BarrierNone), mpReader(rdPlain, 0), both(Allowed)))
	add(mpTest("MP+ishst+po", mpWriter(arch.DMBIshSt), mpReader(rdPlain, 0), armOnly(Allowed)))
	mpPoLd := mpTest("MP+po+ishld", mpWriter(arch.BarrierNone), mpReader(rdFence, arch.DMBIshLd), armOnly(Allowed))
	mpPoLd.Trials = 1200
	add(mpPoLd)
	add(mpTest("MP+ishst+ishld", mpWriter(arch.DMBIshSt), mpReader(rdFence, arch.DMBIshLd), armOnly(Forbidden)))
	add(mpTest("MP+ish+ish", mpWriter(arch.DMBIsh), mpReader(rdFence, arch.DMBIsh), armOnly(Forbidden)))
	add(mpTest("MP+ishst+addr", mpWriter(arch.DMBIshSt), mpReader(rdAddrDep, 0), armOnly(Forbidden)))
	add(mpTest("MP+ishst+ctl", mpWriter(arch.DMBIshSt), mpReader(rdCtrl, 0), armOnly(Allowed)))
	add(mpTest("MP+ishst+ctlisb", mpWriter(arch.DMBIshSt), mpReader(rdCtrlISB, 0), armOnly(Forbidden)))
	add(mpTest("MP+rel+acq", mpWriterRel(), mpReader(rdAcquire, 0), armOnly(Forbidden)))

	add(mpTest("MP+lwsync+po", mpWriter(arch.LwSync), mpReader(rdPlain, 0), powerOnly(Allowed)))
	mpPoLw := mpTest("MP+po+lwsync", mpWriter(arch.BarrierNone), mpReader(rdFence, arch.LwSync), powerOnly(Allowed))
	mpPoLw.Trials, mpPoLw.MaxDelay = 1600, 60
	add(mpPoLw)
	add(mpTest("MP+lwsync+lwsync", mpWriter(arch.LwSync), mpReader(rdFence, arch.LwSync), powerOnly(Forbidden)))
	add(mpTest("MP+sync+sync", mpWriter(arch.HwSync), mpReader(rdFence, arch.HwSync), powerOnly(Forbidden)))
	add(mpTest("MP+lwsync+addr", mpWriter(arch.LwSync), mpReader(rdAddrDep, 0), powerOnly(Forbidden)))
	add(mpTest("MP+lwsync+ctl", mpWriter(arch.LwSync), mpReader(rdCtrl, 0), powerOnly(Allowed)))
	add(mpTest("MP+lwsync+ctlisync", mpWriter(arch.LwSync), mpReader(rdCtrlISB, 0), powerOnly(Forbidden)))

	// --- Store buffering -------------------------------------------------
	add(sbTest("SB", arch.BarrierNone, arch.BarrierNone, both(Allowed)))
	add(sbTest("SB+ish+ish", arch.DMBIsh, arch.DMBIsh, armOnly(Forbidden)))
	add(&Test{
		Name:    "SB+rel+acq",
		Threads: []Thread{sbThreadRelAcq(0, X, Y), sbThreadRelAcq(1, Y, X)},
		Relaxed: SBRelaxed,
		Expect:  armOnly(Forbidden),
	})
	add(sbTest("SB+sync+sync", arch.HwSync, arch.HwSync, powerOnly(Forbidden)))
	// lwsync does not order store→load: SB stays observable.
	add(sbTest("SB+lwsync+lwsync", arch.LwSync, arch.LwSync, powerOnly(Allowed)))

	// --- Per-location coherence ------------------------------------------
	add(&Test{
		Name: "CoRR",
		Threads: []Thread{
			{Body: func(b *arch.Builder) { b.MovImm(2, 1); b.Store(2, Base, X) }},
			{
				Setup: PrimeLines(X),
				Body: func(b *arch.Builder) {
					b.Load(2, Base, X)
					b.Load(3, Base, X)
					b.Store(2, Base, ResultAddr(1, 0))
					b.Store(3, Base, ResultAddr(1, 1))
				},
			},
		},
		Relaxed: func(mem func(int64) int64) bool {
			return mem(ResultAddr(1, 0)) == 1 && mem(ResultAddr(1, 1)) == 0
		},
		Expect: both(Forbidden),
	})
	add(&Test{
		Name: "CoWW",
		Threads: []Thread{{Body: func(b *arch.Builder) {
			b.MovImm(2, 1)
			b.Store(2, Base, X)
			b.MovImm(3, 2)
			b.Store(3, Base, X)
		}}},
		Relaxed: func(mem func(int64) int64) bool { return mem(X) != 2 },
		Expect:  both(Forbidden),
	})

	// --- Load buffering ---------------------------------------------------
	add(&Test{
		Name: "LB",
		Threads: []Thread{
			{Body: func(b *arch.Builder) {
				b.Load(2, Base, X)
				b.MovImm(3, 1)
				b.Store(3, Base, Y)
				b.Store(2, Base, ResultAddr(0, 0))
			}},
			{Body: func(b *arch.Builder) {
				b.Load(2, Base, Y)
				b.MovImm(3, 1)
				b.Store(3, Base, X)
				b.Store(2, Base, ResultAddr(1, 0))
			}},
		},
		Relaxed: func(mem func(int64) int64) bool {
			return mem(ResultAddr(0, 0)) == 1 && mem(ResultAddr(1, 0)) == 1
		},
		// Architecturally allowed on both, but not exhibited by this
		// simulator (stores never commit before older loads satisfy),
		// matching common hardware implementations.
		Expect: both(AllowedUnseen),
	})

	// --- Write-to-read causality ------------------------------------------
	wrcData := wrcTest("WRC+data+addr", arch.BarrierNone, map[string]Expectation{
		"armv8":  Forbidden, // MCA: T2's read of X implies X is globally visible
		"power7": Allowed,   // non-MCA: X may not have reached T3 yet
	})
	wrcData.Trials, wrcData.MaxDelay, wrcData.StressProp = 2400, 300, true
	add(wrcData)
	add(wrcTest("WRC+sync+addr", arch.HwSync, powerOnly(Forbidden)))

	// --- IRIW --------------------------------------------------------------
	iriwAddr := iriwTest("IRIW+addr+addr", rdAddrDep, 0, map[string]Expectation{
		"armv8":  Forbidden,
		"power7": Allowed,
	})
	iriwAddr.Trials, iriwAddr.MaxDelay, iriwAddr.StressProp = 2400, 40, true
	add(iriwAddr)
	add(iriwTest("IRIW+ishld+ishld", rdFence, arch.DMBIshLd, armOnly(Forbidden)))
	add(iriwTest("IRIW+sync+sync", rdFence, arch.HwSync, powerOnly(Forbidden)))
	iriwLw := iriwTest("IRIW+lwsync+lwsync", rdFence, arch.LwSync, powerOnly(Allowed))
	iriwLw.Trials, iriwLw.MaxDelay, iriwLw.StressProp = 2400, 40, true
	add(iriwLw)

	// --- R ------------------------------------------------------------------
	// P0: x=1; fence; y=1   P1: y=2; fence; r=x.  Relaxed: y final 2, r=0.
	rShape := func(name string, f0, f1 arch.BarrierKind, expect map[string]Expectation) *Test {
		return &Test{
			Name: name,
			Threads: []Thread{
				{Body: func(b *arch.Builder) {
					b.MovImm(2, 1)
					b.Store(2, Base, X)
					b.Fence(f0)
					b.Store(2, Base, Y)
				}},
				{
					Setup: PrimeLines(X, Y),
					Body: func(b *arch.Builder) {
						b.MovImm(2, 2)
						b.Store(2, Base, Y)
						b.Fence(f1)
						b.Load(3, Base, X)
						b.Store(3, Base, ResultAddr(1, 0))
					},
				},
			},
			Relaxed: func(mem func(int64) int64) bool {
				return mem(Y) == 2 && mem(ResultAddr(1, 0)) == 0
			},
			Hit:    func(mem func(int64) int64) bool { return mem(Y) == 2 },
			Expect: expect,
		}
	}
	add(rShape("R", arch.BarrierNone, arch.BarrierNone, both(Allowed)))
	add(rShape("R+ish+ish", arch.DMBIsh, arch.DMBIsh, armOnly(Forbidden)))
	add(rShape("R+sync+sync", arch.HwSync, arch.HwSync, powerOnly(Forbidden)))

	// --- S ------------------------------------------------------------------
	// P0: x=2; fence; y=1   P1: r=y; x=1.  Relaxed: r=1 and x finally 2
	// (P1's store ordered coherence-before P0's first store despite the
	// reads-from edge).
	sShape := func(name string, f0 arch.BarrierKind, expect map[string]Expectation) *Test {
		return &Test{
			Name: name,
			Threads: []Thread{
				{Body: func(b *arch.Builder) {
					b.MovImm(2, 2)
					b.Store(2, Base, X)
					b.Fence(f0)
					b.MovImm(3, 1)
					b.Store(3, Base, Y)
				}},
				{
					Setup: PrimeLines(X, Y),
					Body: func(b *arch.Builder) {
						b.Load(2, Base, Y)
						b.MovImm(3, 1)
						b.Store(3, Base, X)
						b.Store(2, Base, ResultAddr(1, 0))
					},
				},
			},
			Relaxed: func(mem func(int64) int64) bool {
				return mem(ResultAddr(1, 0)) == 1 && mem(X) == 2
			},
			Hit:    func(mem func(int64) int64) bool { return mem(ResultAddr(1, 0)) == 1 },
			Expect: expect,
		}
	}
	add(sShape("S", arch.BarrierNone, both(Allowed)))
	// With the writer fenced the shape needs P1's store to commit before
	// its load satisfies, which this machine (like most hardware) never
	// does — architecturally still allowed on ARM/POWER.
	add(sShape("S+ish+po", arch.DMBIsh, armOnly(AllowedUnseen)))
	add(sShape("S+lwsync+po", arch.LwSync, powerOnly(AllowedUnseen)))

	// --- 2+2W ---------------------------------------------------------------
	add(&Test{
		Name: "2+2W",
		Threads: []Thread{
			{Body: func(b *arch.Builder) {
				b.MovImm(2, 1)
				b.MovImm(3, 2)
				b.Store(2, Base, X)
				b.Store(3, Base, Y)
			}},
			{Body: func(b *arch.Builder) {
				b.MovImm(2, 1)
				b.MovImm(3, 2)
				b.Store(2, Base, Y)
				b.Store(3, Base, X)
			}},
		},
		Relaxed: func(mem func(int64) int64) bool { return mem(X) == 1 && mem(Y) == 1 },
		Expect:  both(Allowed),
	})
	add(&Test{
		Name: "2+2W+ishst+ishst",
		Threads: []Thread{
			{Body: func(b *arch.Builder) {
				b.MovImm(2, 1)
				b.MovImm(3, 2)
				b.Store(2, Base, X)
				b.Fence(arch.DMBIshSt)
				b.Store(3, Base, Y)
			}},
			{Body: func(b *arch.Builder) {
				b.MovImm(2, 1)
				b.MovImm(3, 2)
				b.Store(2, Base, Y)
				b.Fence(arch.DMBIshSt)
				b.Store(3, Base, X)
			}},
		},
		Relaxed: func(mem func(int64) int64) bool { return mem(X) == 1 && mem(Y) == 1 },
		Expect:  armOnly(Forbidden),
	})

	return ts
}
