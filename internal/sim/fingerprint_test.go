package sim

import (
	"fmt"
	"testing"

	"repro/internal/arch"
)

// The reference fingerprint: 64-bit FNV-1a, one byte at a time, over the
// full predictor and cache tables and a scan of every memory word.  It
// is the encoding Fingerprint replaced and serves only as a test oracle:
// the two must group machine states identically.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

type refFingerprinter struct{ h uint64 }

func (f *refFingerprinter) word(v uint64) {
	h := f.h
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	f.h = h
}

func (f *refFingerprinter) i64(v int64) { f.word(uint64(v)) }

func (f *refFingerprinter) bool(b bool) {
	if b {
		f.word(1)
	} else {
		f.word(0)
	}
}

// referenceFingerprint is the byte-serial FNV-1a fingerprint over a
// full scan of every table and memory word, kept verbatim as the
// reference the word-at-a-time sparse encoding is checked against: the
// two must group machine states identically.
func (m *Machine) referenceFingerprint() uint64 {
	f := refFingerprinter{h: fnvOffset64}
	now := m.now
	f.i64(now % int64(len(m.cores))) // rotating step-order phase
	if w := m.cfg.WarmupCycles; w > now {
		f.i64(w - now) // a pending stats reset alters nothing else; cheap to include
	}
	for _, c := range m.cores {
		refCore(&f, c, now)
	}
	switch st := m.store.(type) {
	case *mcaStorage:
		refMCA(&f, st)
	case *nonMCAStorage:
		refNonMCA(&f, st, now)
	}
	return f.h
}

func refCore(f *refFingerprinter, c *core, now int64) {
	f.bool(c.halted)
	if c.halted {
		return // architectural state of a halted core is frozen and externally invisible
	}
	f.bool(c.fetchHalted)
	f.i64(int64(c.fetchPC))
	f.i64(rel(c.fetchStallUntil, now))
	f.i64(rel(c.idleUntil, now))
	f.i64(rel(c.nextCommitAt, now))
	for _, v := range c.regs {
		f.i64(v)
	}
	f.i64(c.flagV)
	for _, p := range c.regProd {
		f.i64(c.normProd(p))
	}
	f.i64(c.normProd(c.flagProd))

	f.i64(c.nextID - c.retireID)
	for id := c.retireID; id < c.nextID; id++ {
		e := c.slot(id)
		f.word(uint64(e.state) | uint64(e.cls)<<8 | uint64(e.latCl)<<16)
		f.bool(e.predTak)
		f.bool(e.fwd)
		f.bool(e.addrOK)
		f.i64(int64(e.pc))
		refInstr(f, e)
		f.i64(e.readyAt - now)
		f.i64(e.val)
		f.i64(e.flagV)
		f.i64(e.addr)
		f.word(e.tok)
		f.i64(c.normProd(e.prod[0]))
		f.i64(c.normProd(e.prod[1]))
		f.i64(c.normProd(e.fprod))
	}

	f.i64(int64(len(c.sb)))
	for i := range c.sb {
		s := &c.sb[i]
		f.i64(s.addr)
		f.i64(s.val)
		f.i64(rel(s.ready, now))
		f.bool(s.release)
		f.bool(s.fence)
	}

	for _, b := range c.pred.table {
		f.word(uint64(b))
	}
	for _, t := range c.cache.tags {
		f.i64(t)
	}
	f.bool(c.monArmed)
	f.i64(c.monAddr)
	f.word(c.monSeq)

	f.i64(int64(len(c.prog)))
	for i := range c.prog {
		in := &c.prog[i]
		f.word(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rn)<<16 | uint64(in.Rm)<<24 |
			uint64(in.Kind)<<32 | uint64(in.Site)<<40)
		f.i64(in.Imm)
		f.i64(int64(in.Target))
	}
}

func refInstr(f *refFingerprinter, e *wentry) {
	in := &e.in
	f.word(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rn)<<16 | uint64(in.Rm)<<24 |
		uint64(in.Kind)<<32 | uint64(in.Site)<<40)
	f.i64(in.Imm)
	f.i64(int64(in.Target))
}

func refMCA(f *refFingerprinter, s *mcaStorage) {
	f.word(s.commit)
	for a := range s.mem {
		if s.mem[a] != 0 || s.seq[a] != 0 {
			f.i64(int64(a))
			f.i64(s.mem[a])
			f.word(s.seq[a])
		}
	}
	for _, b := range s.touch.bits {
		f.word(b)
	}
}

func refNonMCA(f *refFingerprinter, s *nonMCAStorage, now int64) {
	f.word(s.commit)
	for a := range s.master {
		if s.master[a] != 0 || s.seq[a] != 0 {
			f.i64(int64(a))
			f.i64(s.master[a])
			f.word(s.seq[a])
			f.i64(rel(s.masterVis[a], now))
		}
	}
	for c := 0; c < s.cores; c++ {
		v, vs, vv := s.views[c], s.viewSeq[c], s.viewVis[c]
		for a := range v {
			if v[a] != 0 || vs[a] != 0 {
				f.i64(int64(a))
				f.i64(v[a])
				f.word(vs[a])
				f.i64(rel(vv[a], now))
			}
		}
		// In-flight propagation events, hashed as an order-independent
		// multiset: heap layout is not behaviour (delivery is bounded by
		// arrival time, and installs are idempotent by sequence), and
		// equal multisets can sit in different heap shapes.  Arrival
		// offsets stay signed: partial deliveries (observeExclusive)
		// are bounded by one event's arrival, so relative order among
		// past-due arrivals still matters.
		var sum, xor uint64
		for _, e := range s.queues[c].ev {
			ef := refFingerprinter{h: fnvOffset64}
			ef.i64(e.arrive - now)
			ef.i64(e.addr)
			ef.i64(e.val)
			ef.word(e.seq)
			ef.i64(rel(e.visAll, now))
			sum += ef.h
			xor ^= ef.h
		}
		f.i64(int64(len(s.queues[c].ev)))
		f.word(sum)
		f.word(xor)
		for d := 0; d < s.cores; d++ {
			f.i64(rel(s.floor[c][d], now))
			f.i64(rel(s.cur[c][d], now))
		}
		f.i64(rel(s.readAck[c], now))
		f.i64(rel(s.ownAck[c], now))
	}
	for _, b := range s.touch.bits {
		f.word(b)
	}
}

// pairSource answers every choice as the machine's own rngs would
// (mirrorSource) and, in bursts of consecutive choice points, records
// the machine's state under both encodings, checking the written-word
// invariant as it goes.
type pairSource struct {
	*mirrorSource
	t     *testing.T
	m     *Machine
	n     int
	pairs [][2]uint64
}

const (
	pairBurst = 32  // consecutive choice points per burst
	pairGap   = 8   // one burst every pairGap bursts
	pairCap   = 600 // samples per run
)

func (p *pairSource) sample() {
	p.n++
	if (p.n/pairBurst)%pairGap != 0 || len(p.pairs) >= pairCap {
		return
	}
	p.pairs = append(p.pairs, [2]uint64{p.m.referenceFingerprint(), p.m.Fingerprint()})
	checkWrittenCovers(p.t, p.m)
}

func (p *pairSource) BoolChoice(c Choice) bool {
	p.sample()
	return p.mirrorSource.BoolChoice(c)
}

func (p *pairSource) IntChoice(c Choice) int64 {
	p.sample()
	return p.mirrorSource.IntChoice(c)
}

// checkWrittenCovers asserts the invariant Reset and Fingerprint rely
// on: every per-word storage array is zero outside the written-word set.
func checkWrittenCovers(t *testing.T, m *Machine) {
	t.Helper()
	var written bitset
	var arrays [][]int64
	var seqs [][]uint64
	switch st := m.store.(type) {
	case *mcaStorage:
		written, arrays, seqs = st.written, [][]int64{st.mem}, [][]uint64{st.seq}
	case *nonMCAStorage:
		written = st.written
		arrays = append([][]int64{st.master, st.masterVis}, st.views...)
		arrays = append(arrays, st.viewVis...)
		seqs = append([][]uint64{st.seq}, st.viewSeq...)
	}
	for a := 0; a < m.memWords; a++ {
		if written.has(int64(a)) {
			continue
		}
		for _, arr := range arrays {
			if arr[a] != 0 {
				t.Fatalf("word %d holds %d but is not in the written set", a, arr[a])
			}
		}
		for _, arr := range seqs {
			if arr[a] != 0 {
				t.Fatalf("word %d has commit sequence %d but is not in the written set", a, arr[a])
			}
		}
	}
}

// TestFingerprintMatchesReference pins the word-at-a-time sparse
// encoding against the byte-serial full scan it replaced: over states
// drawn from every reset/choice scenario on both profiles (and two seeds
// each, whose runs share a prefix), two states hash equal under one
// encoding exactly when they hash equal under the other.
func TestFingerprintMatchesReference(t *testing.T) {
	for name, prof := range arch.Profiles() {
		t.Run(name, func(t *testing.T) {
			refToNew := map[uint64]uint64{}
			newToRef := map[uint64]uint64{}
			samples := 0
			for _, sc := range scenarios(prof) {
				for _, seed := range []int64{1, 5} {
					m := newMachine(t, prof, sc, seed)
					ps := &pairSource{mirrorSource: newMirrorSource(prof, sc.cores, seed), t: t, m: m}
					m.SetChoiceSource(ps)
					runSnapshot(t, m, sc)
					ps.pairs = append(ps.pairs, [2]uint64{m.referenceFingerprint(), m.Fingerprint()})
					checkWrittenCovers(t, m)
					for _, p := range ps.pairs {
						if n, ok := refToNew[p[0]]; ok && n != p[1] {
							t.Fatalf("%s seed %d: states equal under the reference split under the new encoding", sc.name, seed)
						}
						if r, ok := newToRef[p[1]]; ok && r != p[0] {
							t.Fatalf("%s seed %d: states distinct under the reference merge under the new encoding", sc.name, seed)
						}
						refToNew[p[0]], newToRef[p[1]] = p[1], p[0]
					}
					samples += len(ps.pairs)
				}
			}
			if len(refToNew) == samples {
				t.Fatalf("no two of %d sampled states were equal; the grouping check exercised nothing", samples)
			}
			t.Logf("%d sampled states in %d groups", samples, len(refToNew))
		})
	}
}

// TestFingerprintSparseSections pins one targeted pair of states per
// sparse section, on both profiles: each pair must hash equal (or
// distinct) under both encodings alike.
func TestFingerprintSparseSections(t *testing.T) {
	for name, prof := range arch.Profiles() {
		commit := func(m *Machine, addr, val int64) { m.store.commitStore(0, addr, val, 0) }
		// settle delivers every in-flight propagation, so the pair
		// differs only where the case says it does.
		settle := func(m *Machine) {
			if st, ok := m.store.(*nonMCAStorage); ok {
				for c := 0; c < st.cores; c++ {
					st.deliver(c, 1<<40)
				}
			}
		}
		nop := func(*Machine) {}
		type pair struct {
			name  string
			a, b  func(m *Machine)
			equal bool
		}
		cases := []pair{
			{"word written back to 0 keeps its seq",
				func(m *Machine) { commit(m, 0, 5); commit(m, 0, 0); settle(m) },
				func(m *Machine) { commit(m, 1, 5); commit(m, 1, 0); settle(m) },
				false},
			{"predictor counter moved off 1", nop,
				func(m *Machine) { m.cores[0].pred.update(12, true) },
				false},
			{"a different predictor counter moved off 1",
				func(m *Machine) { m.cores[0].pred.table[3] = 2 },
				func(m *Machine) { m.cores[0].pred.table[5] = 2 },
				false},
			{"predictor counter moved back to 1", nop,
				func(m *Machine) { m.cores[0].pred.update(12, true); m.cores[0].pred.update(12, false) },
				true},
			{"cache tag filled", nop,
				func(m *Machine) { m.cores[1].cache.fill(64) },
				false},
			{"cache tag filled then invalidated", nop,
				func(m *Machine) { m.cores[1].cache.fill(64); m.cores[1].cache.invalidate(64) },
				true},
		}
		if prof.Flavor == arch.NonMCA {
			published := func(m *Machine) { commit(m, 0, 7); settle(m) }
			cases = append(cases, pair{"view differs from master", published,
				func(m *Machine) {
					published(m)
					st := m.store.(*nonMCAStorage)
					st.views[1][0], st.viewSeq[1][0], st.viewVis[1][0] = 0, 0, 0
				},
				false})
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", name, tc.name), func(t *testing.T) {
				build := func(apply func(*Machine)) *Machine {
					m, err := New(prof, Config{Cores: 2, MemWords: 1024, Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					apply(m)
					return m
				}
				a, b := build(tc.a), build(tc.b)
				if got := a.referenceFingerprint() == b.referenceFingerprint(); got != tc.equal {
					t.Errorf("reference encoding: equal=%v, want %v", got, tc.equal)
				}
				if got := a.Fingerprint() == b.Fingerprint(); got != tc.equal {
					t.Errorf("new encoding: equal=%v, want %v", got, tc.equal)
				}
			})
		}
	}
}
