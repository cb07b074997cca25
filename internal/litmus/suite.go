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

// primeLines returns a Thread.Setup that loads each address once, so the
// test's races start on warmed lines.
func primeLines(addrs ...int64) func(*arch.Builder) {
	return func(b *arch.Builder) {
		for _, a := range addrs {
			b.Load(26, Base, a)
		}
	}
}

// An Access emits one memory access with whatever orders it: a store of
// register r to base+off, or a load of base+off into r.  A platform code
// generator's access method is one as a method value (j.VolatileStore).
type Access func(b *arch.Builder, r, base arch.Reg, off int64)

// PlainStore and PlainLoad emit ordinary accesses.
func PlainStore(b *arch.Builder, r, base arch.Reg, off int64) { b.Store(r, base, off) }

func PlainLoad(b *arch.Builder, r, base arch.Reg, off int64) { b.Load(r, base, off) }

// AddrDepLoad is MP's data load through the "pointer" the flag load left
// in register 2: r4 = r2 ^ r2 = 0 and r5 = base + r4 make a true address
// dependency that does not change the address.
func AddrDepLoad(b *arch.Builder, r, base arch.Reg, off int64) {
	b.Eor(4, 2, 2)
	b.Add(5, base, 4)
	b.Load(r, 5, off)
}

// storeRelease and loadAcquire emit stlr and ldar.
func storeRelease(b *arch.Builder, r, base arch.Reg, off int64) { b.StoreRel(r, base, off) }

func loadAcquire(b *arch.Builder, r, base arch.Reg, off int64) { b.LoadAcq(r, base, off) }

// fenced emits barrier f, a nop for BarrierNone (po), before a.
func fenced(f arch.BarrierKind, a Access) Access {
	return func(b *arch.Builder, r, base arch.Reg, off int64) {
		b.Fence(f)
		a(b, r, base, off)
	}
}

// ctrl emits a behind a control dependency on register 2: a conditional
// branch on the loaded value over an impotent target (both paths reach
// a), per ARMv8 manual B2.7.4.
func ctrl(a Access) Access {
	return func(b *arch.Builder, r, base arch.Reg, off int64) {
		b.CmpImm(2, 42)
		b.Bne("ctl")
		b.Label("ctl")
		a(b, r, base, off)
	}
}

// SB is the store-buffering (Dekker) shape: each thread stores 1 to its
// own location with store, then loads the other's into register 3 with
// load.  Relaxed: both loads read 0.
func SB(name string, store, load Access) *Test {
	th := func(t int, mine, other int64) Thread {
		return Thread{
			Setup: primeLines(X, Y),
			Body: func(b *arch.Builder) {
				b.MovImm(2, 1)
				store(b, 2, Base, mine)
				load(b, 3, Base, other)
				b.Store(3, Base, ResultAddr(t, 0))
			},
		}
	}
	return &Test{
		Name:    name,
		Threads: []Thread{th(0, X, Y), th(1, Y, X)},
		Relaxed: func(mem func(int64) int64) bool {
			return mem(ResultAddr(0, 0)) == 0 && mem(ResultAddr(1, 0)) == 0
		},
	}
}

// MP is the message-passing shape: the writer stores 1 to the data X
// with dataStore, then to the flag Y with flagStore; the reader, its X
// line primed so the data load can satisfy quickly relative to a missing
// flag, loads the flag into register 2 with flagLoad, then the data into
// register 3 with dataLoad.  Relaxed: the reader saw the flag but not the
// data it guards.
func MP(name string, dataStore, flagStore, flagLoad, dataLoad Access) *Test {
	return &Test{
		Name: name,
		Threads: []Thread{
			{Body: func(b *arch.Builder) {
				b.MovImm(2, 1)
				dataStore(b, 2, Base, X)
				flagStore(b, 2, Base, Y)
			}},
			{
				Setup: primeLines(X),
				Body: func(b *arch.Builder) {
					flagLoad(b, 2, Base, Y)
					dataLoad(b, 3, Base, X)
					b.Store(2, Base, ResultAddr(1, 0))
					b.Store(3, Base, ResultAddr(1, 1))
				},
			},
		},
		Relaxed: func(mem func(int64) int64) bool {
			return mem(ResultAddr(1, 0)) == 1 && mem(ResultAddr(1, 1)) == 0
		},
		Hit: func(mem func(int64) int64) bool { return mem(ResultAddr(1, 0)) == 1 },
	}
}

// expecting sets t's expectations.
func expecting(t *Test, e map[string]Expectation) *Test {
	t.Expect = e
	return t
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

// wrcT2 spins until it reads X = 1, then (ordered by fence and by the data
// dependency through r2) stores Y = r2.
func wrcT2(fence arch.BarrierKind) Thread {
	return Thread{
		Setup: primeLines(X),
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
		Setup: primeLines(X, Y),
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
// litmus campaign's retry harness), then reads second into register 3
// with read and records both observations.
func iriwReader(t int, first, second int64, read Access) Thread {
	return Thread{
		Setup: primeLines(first, second),
		Body: func(b *arch.Builder) {
			b.Label("iriw_spin")
			b.Load(2, Base, first)
			b.CmpImm(2, 1)
			b.Bne("iriw_spin")
			read(b, 3, Base, second)
			b.Store(2, Base, ResultAddr(t, 0))
			b.Store(3, Base, ResultAddr(t, 1))
		},
	}
}

func iriwTest(name string, read Access, expect map[string]Expectation) *Test {
	w1 := Thread{Body: func(b *arch.Builder) { b.MovImm(2, 1); b.Store(2, Base, X) }}
	w2 := Thread{Body: func(b *arch.Builder) { b.MovImm(2, 1); b.Store(2, Base, Y) }}
	return &Test{
		Name: name,
		Threads: []Thread{w1, w2,
			iriwReader(2, X, Y, read),
			iriwReader(3, Y, X, read)},
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
	add := func(t *Test) *Test {
		if _, ok := t.Expect[profile]; ok {
			ts = append(ts, t)
		}
		return t
	}
	// ld is a plain load behind barrier f (a nop for po).
	ld := func(f arch.BarrierKind) Access { return fenced(f, PlainLoad) }

	// --- Message passing ------------------------------------------------
	// The writer fences its flag store (a nop for po); dataLoad carries
	// the reader's ordering.
	mp := func(name string, f arch.BarrierKind, dataLoad Access, expect map[string]Expectation) *Test {
		return add(expecting(MP(name, PlainStore, fenced(f, PlainStore), PlainLoad, dataLoad), expect))
	}
	mp("MP", arch.BarrierNone, PlainLoad, both(Allowed))
	mp("MP+ishst+po", arch.DMBIshSt, PlainLoad, armOnly(Allowed))
	mp("MP+po+ishld", arch.BarrierNone, ld(arch.DMBIshLd), armOnly(Allowed)).Trials = 1200
	mp("MP+ishst+ishld", arch.DMBIshSt, ld(arch.DMBIshLd), armOnly(Forbidden))
	mp("MP+ish+ish", arch.DMBIsh, ld(arch.DMBIsh), armOnly(Forbidden))
	mp("MP+ishst+addr", arch.DMBIshSt, AddrDepLoad, armOnly(Forbidden))
	mp("MP+ishst+ctl", arch.DMBIshSt, ctrl(PlainLoad), armOnly(Allowed))
	mp("MP+ishst+ctlisb", arch.DMBIshSt, ctrl(ld(arch.ISB)), armOnly(Forbidden))
	add(expecting(MP("MP+rel+acq", PlainStore, storeRelease, loadAcquire, PlainLoad), armOnly(Forbidden)))

	mp("MP+lwsync+po", arch.LwSync, PlainLoad, powerOnly(Allowed))
	mpPoLw := mp("MP+po+lwsync", arch.BarrierNone, ld(arch.LwSync), powerOnly(Allowed))
	mpPoLw.Trials, mpPoLw.MaxDelay = 1600, 60
	mp("MP+lwsync+lwsync", arch.LwSync, ld(arch.LwSync), powerOnly(Forbidden))
	mp("MP+sync+sync", arch.HwSync, ld(arch.HwSync), powerOnly(Forbidden))
	mp("MP+lwsync+addr", arch.LwSync, AddrDepLoad, powerOnly(Forbidden))
	mp("MP+lwsync+ctl", arch.LwSync, ctrl(PlainLoad), powerOnly(Allowed))
	mp("MP+lwsync+ctlisync", arch.LwSync, ctrl(ld(arch.ISB)), powerOnly(Forbidden))

	// --- Store buffering -------------------------------------------------
	// Thread 1 primes its own line Y first, as the catalogue always has
	// (the gates prime X then Y on both threads): the priming order moves
	// sampled outcomes at some seeds.
	sb := func(name string, store, load Access, expect map[string]Expectation) {
		t := SB(name, store, load)
		t.Threads[1].Setup = primeLines(Y, X)
		add(expecting(t, expect))
	}
	sb("SB", PlainStore, ld(arch.BarrierNone), both(Allowed))
	sb("SB+ish+ish", PlainStore, ld(arch.DMBIsh), armOnly(Forbidden))
	// The JDK9 / C11-SC volatile mapping, whose RCsc stlr→ldar ordering
	// forbids the SB relaxation on ARMv8.
	sb("SB+rel+acq", storeRelease, loadAcquire, armOnly(Forbidden))
	sb("SB+sync+sync", PlainStore, ld(arch.HwSync), powerOnly(Forbidden))
	// lwsync does not order store→load: SB stays observable.
	sb("SB+lwsync+lwsync", PlainStore, ld(arch.LwSync), powerOnly(Allowed))

	// --- Per-location coherence ------------------------------------------
	add(&Test{
		Name: "CoRR",
		Threads: []Thread{
			{Body: func(b *arch.Builder) { b.MovImm(2, 1); b.Store(2, Base, X) }},
			{
				Setup: primeLines(X),
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
	// The readers' address dependency on register 2 builds the address in
	// scratch registers 5 and 6.
	addrDep := func(b *arch.Builder, r, base arch.Reg, off int64) {
		b.Eor(5, 2, 2)
		b.Add(6, base, 5)
		b.Load(r, 6, off)
	}
	iriwAddr := iriwTest("IRIW+addr+addr", addrDep, map[string]Expectation{
		"armv8":  Forbidden,
		"power7": Allowed,
	})
	iriwAddr.Trials, iriwAddr.MaxDelay, iriwAddr.StressProp = 2400, 40, true
	add(iriwAddr)
	add(iriwTest("IRIW+ishld+ishld", ld(arch.DMBIshLd), armOnly(Forbidden)))
	add(iriwTest("IRIW+sync+sync", ld(arch.HwSync), powerOnly(Forbidden)))
	iriwLw := iriwTest("IRIW+lwsync+lwsync", ld(arch.LwSync), powerOnly(Allowed))
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
					Setup: primeLines(X, Y),
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
					Setup: primeLines(X, Y),
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
