package sim

import "math/bits"

// Machine state fingerprinting for the exhaustive explorer
// (internal/explore): a 64-bit hash over everything that can influence
// the machine's future behaviour, with absolute times normalised to
// offsets from the current cycle so that runs reaching the same
// configuration at different cycles hash equal.
//
// What is included: architectural and microarchitectural core state
// (registers, flags, the live reorder-window entries with producer links
// re-based to the retire pointer, store buffers, fetch state, predictor
// tables, cache tags, the exclusive monitor), the loaded programs, the
// rotating step-order phase (now mod cores — the machine steps cores in
// an absolute-time-dependent order), and the storage subsystem (memory
// words with their commit sequences, per-core views, in-flight
// propagation events as an order-independent multiset, channel-group
// floors, acknowledgement clocks).
//
// What is deliberately excluded: statistics counters, work timestamps
// and the watchdog's retirement counter (they never feed back into
// execution), and the rng states (a fingerprinting caller has a
// ChoiceSource installed, so the rngs are never consulted).
//
// Time normalisation: times that only matter while they lie in the
// future (fetch stalls, idle wake-ups, visibility clocks, channel
// floors) are clamped to zero once past; times whose relative order
// among past values still matters (pending propagation arrivals, which
// bound partial deliveries) are kept as signed offsets.
//
// Encoding: the state is serialised as a stream of 64-bit words, each
// absorbed with one 64x64->128-bit multiply folded to 64 bits (the mum
// step of wyhash) under fixed constants, so a fingerprint is a pure
// function of the state, identical across processes.  The stream is
// sparse where the state is mostly at its initial value: predictor
// counters other than 1 (weakly not-taken, the reset value) and cache
// tags other than -1 (empty) are emitted as (index, value) pairs, each
// section closed by a terminator no index can equal; memory is walked
// over the storage's written-word set in address order rather than
// scanned.  Every section is self-delimiting, so the encoding is as
// injective as a fixed-length dump of the full tables, at a cost that
// scales with the state a run has actually touched.

// Fixed mixing constants (wyhash's default secret).
const (
	fpSeed uint64 = 0xa0761d6478bd642f
	fpMulA uint64 = 0xe7037ed1a0b428db
	fpMulB uint64 = 0x8ebc6af09c88c6e3
)

// fpEnd terminates a sparse section: no table index equals it.
const fpEnd = ^uint64(0)

type fingerprinter struct{ h uint64 }

func newFingerprinter() fingerprinter { return fingerprinter{h: fpSeed} }

// word absorbs v: the full 128-bit product of the chained state and the
// word, each offset by a constant, folded to 64 bits.
func (f *fingerprinter) word(v uint64) {
	hi, lo := bits.Mul64(f.h^fpMulA, v^fpMulB)
	f.h = hi ^ lo
}

func (f *fingerprinter) i64(v int64) { f.word(uint64(v)) }

func (f *fingerprinter) bool(b bool) {
	if b {
		f.word(1)
	} else {
		f.word(0)
	}
}

// rel re-bases an absolute time, clamping past times to zero.
func rel(t, now int64) int64 {
	if t <= now {
		return 0
	}
	return t - now
}

// Fingerprint hashes the machine's current state.  Two machines with
// equal fingerprints evolve identically under identical future choice
// resolutions (up to 64-bit hash collisions, which the explorer accepts
// as model checkers conventionally do).
func (m *Machine) Fingerprint() uint64 {
	f := newFingerprinter()
	now := m.now
	f.i64(now % int64(len(m.cores))) // rotating step-order phase
	if w := m.cfg.WarmupCycles; w > now {
		f.i64(w - now) // a pending stats reset alters nothing else; cheap to include
	}
	for _, c := range m.cores {
		c.fingerprint(&f, now)
	}
	switch st := m.store.(type) {
	case *mcaStorage:
		st.fingerprint(&f)
	case *nonMCAStorage:
		st.fingerprint(&f, now)
	}
	return f.h
}

func (c *core) fingerprint(f *fingerprinter, now int64) {
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
		fingerprintInstr(f, e)
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

	for i, b := range c.pred.table {
		if b != 1 {
			f.word(uint64(i)<<8 | uint64(b))
		}
	}
	f.word(fpEnd)
	for i, t := range c.cache.tags {
		if t != -1 {
			f.word(uint64(i))
			f.i64(t)
		}
	}
	f.word(fpEnd)
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

// normProd re-bases a producer id: retired producers are architecturally
// equivalent to register-file reads, so they hash as noProd.
func (c *core) normProd(p int64) int64 {
	if p == noProd || p < c.retireID {
		return noProd
	}
	return p - c.retireID
}

func fingerprintInstr(f *fingerprinter, e *wentry) {
	in := &e.in
	f.word(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Rn)<<16 | uint64(in.Rm)<<24 |
		uint64(in.Kind)<<32 | uint64(in.Site)<<40)
	f.i64(in.Imm)
	f.i64(int64(in.Target))
}

func (s *mcaStorage) fingerprint(f *fingerprinter) {
	f.word(s.commit)
	s.written.each(func(a int64) {
		if s.mem[a] != 0 || s.seq[a] != 0 {
			f.i64(a)
			f.i64(s.mem[a])
			f.word(s.seq[a])
		}
	})
	f.word(fpEnd)
	for _, b := range s.touch.bits {
		f.word(b)
	}
}

func (s *nonMCAStorage) fingerprint(f *fingerprinter, now int64) {
	f.word(s.commit)
	s.written.each(func(a int64) {
		if s.master[a] != 0 || s.seq[a] != 0 {
			f.i64(a)
			f.i64(s.master[a])
			f.word(s.seq[a])
			f.i64(rel(s.masterVis[a], now))
		}
	})
	f.word(fpEnd)
	for c := 0; c < s.cores; c++ {
		v, vs, vv := s.views[c], s.viewSeq[c], s.viewVis[c]
		s.written.each(func(a int64) {
			if v[a] != 0 || vs[a] != 0 {
				f.i64(a)
				f.i64(v[a])
				f.word(vs[a])
				f.i64(rel(vv[a], now))
			}
		})
		f.word(fpEnd)
		// In-flight propagation events, hashed as an order-independent
		// multiset: heap layout is not behaviour (delivery is bounded by
		// arrival time, and installs are idempotent by sequence), and
		// equal multisets can sit in different heap shapes.  Arrival
		// offsets stay signed: partial deliveries (observeExclusive)
		// are bounded by one event's arrival, so relative order among
		// past-due arrivals still matters.
		var sum, xor uint64
		for _, e := range s.queues[c].ev {
			ef := newFingerprinter()
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
