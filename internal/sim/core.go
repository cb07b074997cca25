package sim

import (
	"fmt"

	"repro/internal/arch"
)

// Window-entry states.
const (
	stFetched uint8 = iota // in the window, not yet issued
	stIssued               // executing; result ready at readyAt
	stDone                 // completed, eligible to retire in order
)

const noProd = int64(-1)

// Instruction-class bits, computed once at fetch so the per-cycle window
// scan tests a byte instead of re-deriving opcode predicates.
const (
	clsMem     uint8 = 1 << iota // op.IsMem()
	clsLoad                      // op.IsLoad()
	clsStore                     // op.IsStore()
	clsBarrier                   // op == Barrier
	clsFullBar                   // Barrier kind dmb ish / hwsync / isb
	clsLdBar                     // Barrier kind ordering load-load
	clsLoadAcq                   // op == LoadAcq
	clsCondBr                    // op.IsCondBranch()
)

func classify(in arch.Instr) uint8 {
	var cls uint8
	op := in.Op
	if op.IsMem() {
		cls |= clsMem
	}
	switch {
	case op.IsLoad():
		cls |= clsLoad
		if op == arch.LoadAcq {
			cls |= clsLoadAcq
		}
	case op.IsStore():
		cls |= clsStore
	case op == arch.Barrier:
		cls |= clsBarrier
		k := in.Kind
		if k == arch.DMBIsh || k == arch.HwSync || k == arch.ISB {
			cls |= clsFullBar
		}
		if k.OrdersLoadLoad() {
			cls |= clsLdBar
		}
	case op.IsCondBranch():
		cls |= clsCondBr
	}
	return cls
}

// wentry is one in-flight instruction in a core's reorder window.
type wentry struct {
	in      arch.Instr
	pc      int32
	state   uint8
	cls     uint8 // instruction-class bits (classify)
	predTak bool  // fetch-time prediction for conditional branches
	fwd     bool  // load satisfied by store forwarding

	readyAt int64
	val     int64 // result value (loads: value read; stxr: 0/1)
	flagV   int64 // for flag setters: the signed comparison value
	addr    int64
	addrOK  bool

	tok uint64 // loads: commit seq associated with the value read

	prod  [2]int64 // window ids of operand producers (noProd = regfile)
	fprod int64    // window id of flags producer
	latCl uint8    // latency class chosen at issue (loads)
}

// Latency classes for loads.
const (
	latHit uint8 = iota
	latL2
	latMem
	latFwd
)

// sbEntry is a pending store (or ordering marker) in the store buffer.
type sbEntry struct {
	addr, val int64
	ready     int64 // earliest commit time (line ownership acquired)
	site      arch.PathID
	release   bool // store-release: may not be bypassed, fences the group
	fence     bool // pure marker from dmb ishst / lwsync
}

// CoreStats aggregates per-core observable counters for a run.
type CoreStats struct {
	Retired     uint64
	Work        int64
	Loads       uint64
	Stores      uint64
	Barriers    uint64
	Mispredicts uint64
	Squashes    uint64
	L1Hits      uint64
	L1Misses    uint64
	StallFull   uint64 // cycles with a full window and nothing fetched
	WorkTimes   []int64
}

type core struct {
	id   int
	m    *Machine
	prog []arch.Instr

	regs  [arch.NumRegs]int64
	flagV int64

	// Reorder window: entries are addressed by monotonically increasing
	// ids; slot(id) = id & mask.  Ids in [retireID, nextID) are live.
	entries  []wentry
	mask     int64
	retireID int64
	nextID   int64

	regProd  [arch.NumRegs]int64
	flagProd int64

	fetchPC         int32
	fetchStallUntil int64
	fetchHalted     bool // Halt has been fetched; stop fetching

	sb           []sbEntry
	nextCommitAt int64

	pred   *predictor
	cache  *l1
	rnd    rng
	halted bool

	// Idle fast path: when nothing can be fetched or issued, the core's
	// next state change is a known future time; step() skips until then.
	nFetched  int   // window entries in stFetched
	minReady  int64 // earliest pending completion seen by the last scan
	idleUntil int64
	// scanAllHard reports that the last window scan issued nothing, drew
	// no randomness, and left every fetched entry blocked on one of this
	// core's own timed events (producer or barrier completion).  Such a
	// core may idle even with fetched entries in the window: no skipped
	// cycle would have consumed RNG or changed state.
	scanAllHard bool
	// idleFullStall marks a hard-block idle whose skipped cycles each
	// count a full-window fetch stall; StallFull for them is credited up
	// front, and re-credited if the warmup boundary zeroes the counters
	// mid-idle.
	idleFullStall bool
	stats         CoreStats
	lastRet       int64  // cycle of the most recent retirement (watchdog)
	retiredEver   uint64 // monotonic retirement count; survives warmup reset

	monArmed bool
	monAddr  int64
	monSeq   uint64

	recordWork bool
}

func newCore(id int, m *Machine, seed uint64) *core {
	winCap := 1
	for winCap < m.prof.Pipe.Window {
		winCap <<= 1
	}
	c := &core{
		id:       id,
		m:        m,
		entries:  make([]wentry, winCap),
		mask:     int64(winCap - 1),
		pred:     newPredictor(m.prof.Pipe.BranchPredictorBits),
		cache:    newL1(m.prof.L1Lines, m.prof.LineWords),
		rnd:      newRNG(seed),
		flagProd: noProd,
	}
	for i := range c.regProd {
		c.regProd[i] = noProd
	}
	return c
}

// reset returns the core to its just-constructed state, keeping every
// allocation (window, store buffer, predictor table, cache tags, recorded
// work-time capacity).  Mirrors newCore field for field; stale window
// entries need no clearing because ids in [retireID, nextID) are the only
// ones ever read and fetch overwrites a slot wholesale.
func (c *core) reset(seed uint64) {
	c.prog = nil
	for i := range c.regs {
		c.regs[i] = 0
	}
	c.flagV = 0
	c.retireID, c.nextID = 0, 0
	for i := range c.regProd {
		c.regProd[i] = noProd
	}
	c.flagProd = noProd
	c.fetchPC, c.fetchStallUntil, c.fetchHalted = 0, 0, false
	c.sb = c.sb[:0]
	c.nextCommitAt = 0
	c.pred.reset()
	c.cache.reset()
	c.rnd = newRNG(seed)
	c.halted = false
	c.nFetched, c.minReady, c.idleUntil = 0, 0, 0
	c.scanAllHard, c.idleFullStall = false, false
	wt := c.stats.WorkTimes[:0]
	c.stats = CoreStats{WorkTimes: wt}
	c.lastRet = 0
	c.retiredEver = 0
	c.monArmed, c.monAddr, c.monSeq = false, 0, 0
}

func (c *core) slot(id int64) *wentry { return &c.entries[id&c.mask] }

func (c *core) live() int64 { return c.nextID - c.retireID }

// operandVal resolves a register operand at issue time.  A producer that
// has already retired has written its value to the architectural register
// file (and nothing younger than the consumer can have overwritten it,
// because retirement is in order).
func (c *core) operandVal(_ int64, r arch.Reg, prodID int64) int64 {
	if prodID == noProd || prodID < c.retireID {
		return c.regs[r]
	}
	return c.slot(prodID).val
}

// prodReady reports whether the producer of an operand has its value.
func (c *core) prodReady(prodID int64) bool {
	if prodID == noProd || prodID < c.retireID {
		return true
	}
	return c.slot(prodID).state == stDone
}

// step advances the core by one cycle.
func (c *core) step(now int64) {
	if c.halted {
		return
	}
	if now < c.idleUntil {
		// Nothing can change before idleUntil: no fetchable or issuable
		// work exists and every pending event (completion, store-buffer
		// commit, fetch restart) lies in the future.  Deliveries are
		// value-only and are re-applied at load completion.
		return
	}
	c.m.store.deliver(c.id, now)
	c.drainSB(now)
	c.completeAndIssue(now)
	c.retire(now)
	c.fetch(now)
	c.maybeIdle(now)
}

// debugForceSlowScan disables the hard-block idle fast path and the
// machine-level cycle jump, leaving only the original nFetched==0 idle
// heuristic.  Equivalence tests flip it to prove the fast paths do not
// change a single observable bit.
var debugForceSlowScan = false

// maybeIdle computes how long the core can safely skip cycles.  Two cases:
//
//   - nFetched == 0: nothing is waiting to issue; if fetch cannot add
//     anything, all remaining transitions are timed events.  This is the
//     original heuristic and is kept bit-for-bit (including its choice of
//     store-buffer wake time) because skipped cycles define which RNG draw
//     opportunities exist.
//
//   - nFetched > 0 but the last scan proved every fetched entry is
//     hard-blocked (scanAllHard): no skipped cycle would draw RNG or issue.
//     Here the wake time must be exact — in particular it must include the
//     first cycle at which the store buffer could draw its out-of-order
//     commit probability (sbWake), or skipping would desynchronise the RNG
//     stream relative to a non-idling run.
func (c *core) maybeIdle(now int64) {
	if c.halted {
		return
	}
	canFetch := !c.fetchHalted && now >= c.fetchStallUntil &&
		c.live() < int64(c.m.prof.Pipe.Window) && int(c.fetchPC) < len(c.prog)
	if canFetch {
		return
	}
	if c.nFetched == 0 {
		wake := int64(1) << 62
		if c.minReady > now && c.minReady < wake {
			wake = c.minReady
		}
		if len(c.sb) > 0 {
			w := c.nextCommitAt
			if !c.sb[0].fence && c.sb[0].ready > w {
				w = c.sb[0].ready
			}
			if w <= now {
				w = now + 1
			}
			if w < wake {
				wake = w
			}
		}
		if !c.fetchHalted && c.fetchStallUntil > now && c.fetchStallUntil < wake {
			wake = c.fetchStallUntil
		}
		if wake > now+1 && wake < int64(1)<<62 {
			c.idleUntil = wake
			c.idleFullStall = false
		}
		return
	}
	if debugForceSlowScan || !c.scanAllHard {
		return
	}
	// Hard-blocked window: entries unblock only via completions (covered
	// by minReady — hard blocks clear when a producer or barrier
	// completes, and any completion enables at most one issue attempt at
	// exactly that cycle).  Retirement must not be pending: a retirable
	// head could free window slots or drain stores mid-idle.
	if c.live() > 0 && c.slot(c.retireID).state == stDone {
		return
	}
	wake := int64(1) << 62
	if c.minReady > now && c.minReady < wake {
		wake = c.minReady
	}
	if len(c.sb) > 0 {
		if w := c.sbWake(now); w < wake {
			wake = w
		}
	}
	if !c.fetchHalted && c.fetchStallUntil > now && c.fetchStallUntil < wake {
		wake = c.fetchStallUntil
	}
	if wake > now+1 && wake < int64(1)<<62 {
		c.idleUntil = wake
		// A non-idling run calls fetch on every skipped cycle; with a full
		// window each fetch-eligible cycle records one StallFull.  Those
		// conditions cannot change mid-idle (no fetch, no retirement), so
		// credit the skipped cycles' stalls up front.  The flag lets the
		// warmup-boundary reset re-credit the post-boundary remainder.
		c.idleFullStall = !c.fetchHalted && c.live() >= int64(c.m.prof.Pipe.Window)
		if c.idleFullStall {
			from := now + 1
			if c.fetchStallUntil > from {
				from = c.fetchStallUntil
			}
			if wake > from {
				c.stats.StallFull += uint64(wake - from)
			}
		}
	}
}

// sbWake returns the next cycle at which drainSB would act — pop a fence,
// commit the head store, or (crucially for determinism) draw the
// out-of-order combine probability.  Exact, not conservative: the relaxed
// idle path may not skip a cycle in which drainSB would have consumed RNG.
func (c *core) sbWake(now int64) int64 {
	t0 := c.nextCommitAt
	if t0 <= now {
		t0 = now + 1
	}
	if c.sb[0].fence {
		return t0
	}
	// Head commit: first cycle past the commit gap with line ownership.
	th := t0
	if c.sb[0].ready > th {
		th = c.sb[0].ready
	}
	// Out-of-order combine: from max(t0, sb[1].ready) on, every cycle with
	// the head still stuck draws storeCombinePermille.
	if len(c.sb) > 1 && !c.sb[0].release && !c.sb[1].release && !c.sb[1].fence &&
		c.sb[0].addr>>c.cache.lineShift != c.sb[1].addr>>c.cache.lineShift {
		tc := t0
		if c.sb[1].ready > tc {
			tc = c.sb[1].ready
		}
		if tc < th {
			return tc
		}
	}
	return th
}

// ---------------------------------------------------------------- fetch --

func (c *core) fetch(now int64) {
	if c.fetchHalted || now < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.m.prof.Pipe.FetchWidth; n++ {
		if c.live() >= int64(c.m.prof.Pipe.Window) {
			c.stats.StallFull++
			return
		}
		if int(c.fetchPC) >= len(c.prog) {
			return
		}
		in := c.prog[c.fetchPC]
		id := c.nextID
		c.nextID++
		c.nFetched++
		// The window now holds an entry the last scan never saw (fetch runs
		// after completeAndIssue in step); the hard-block proof no longer
		// covers the window, so the relaxed idle path must not use it.
		c.scanAllHard = false
		e := c.slot(id)
		*e = wentry{in: in, pc: c.fetchPC, state: stFetched, cls: classify(in), fprod: noProd}
		e.prod[0], e.prod[1] = noProd, noProd

		// Record operand producers (rename-lite).
		var buf [3]arch.Reg
		reads := in.Reads(buf[:0])
		for i, r := range reads {
			if i < 2 {
				e.prod[i] = c.regProd[r]
			}
		}
		if in.ReadsFlags() {
			e.fprod = c.flagProd
		}
		if rd, ok := in.Writes(); ok {
			c.regProd[rd] = id
		}
		if in.SetsFlags() {
			c.flagProd = id
		}

		// Redirect fetch.
		switch {
		case in.Op == arch.B:
			c.fetchPC = in.Target
		case in.Op.IsCondBranch():
			e.predTak = c.pred.predict(e.pc)
			if e.predTak {
				c.fetchPC = in.Target
			} else {
				c.fetchPC++
			}
		case in.Op == arch.Halt:
			c.fetchHalted = true
			c.fetchPC++
			return
		default:
			c.fetchPC++
		}
	}
}

// ------------------------------------------------------------- complete --

// completeAndIssue walks the window oldest→youngest once per cycle,
// completing in-flight instructions whose latency has elapsed and issuing
// ready instructions subject to the memory-ordering constraints of the
// profile's ISA.
func (c *core) completeAndIssue(now int64) {
	issueBudget := c.m.prof.Pipe.IssueWidth
	c.minReady = int64(1) << 62

	// Ordering state accumulated over older entries during the scan.
	barrierPending := false     // any incomplete barrier (barriers serialize)
	fullBarrierPending := false // incomplete dmb ish / hwsync / isb older than here
	loadBarrierPending := false // incomplete load-ordering barrier or ldar
	olderLoadPending := false   // an older load has not yet satisfied
	olderStoreAddrUnknown := false
	noSpec := c.m.prof.Pipe.NoLoadSpeculation
	issued := false  // any entry issued this scan
	sawSoft := false // any entry blocked after consuming RNG
	c.scanAllHard = false

	entries, mask := c.entries, c.mask
	for id := c.retireID; id < c.nextID; id++ {
		e := &entries[id&mask]

		if e.state == stIssued && e.readyAt <= now {
			c.complete(id, e, now)
		}

		if e.state == stFetched && issueBudget > 0 {
			switch c.tryIssue(id, e, now,
				barrierPending, fullBarrierPending, loadBarrierPending, olderLoadPending, olderStoreAddrUnknown) {
			case issueOK:
				if e.state != stFetched {
					issued = true
					issueBudget--
					c.nFetched--
				}
			case blockSoft:
				sawSoft = true
			}
			// A mispredicted branch squashes everything younger; the
			// window beyond this point is gone.
			if id >= c.nextID {
				return
			}
		}

		if e.state == stIssued && e.readyAt < c.minReady {
			c.minReady = e.readyAt
		}

		// Update ordering state for younger entries, from the class bits
		// computed at fetch.
		cls := e.cls
		if cls == 0 {
			continue
		}
		switch {
		case cls&clsBarrier != 0:
			if e.state != stDone {
				// Barriers serialize against each other (at most one in
				// flight), which is what gives them a measurable cost
				// even in sterile timing loops (TXT3); beyond that,
				// only the orderings their semantics demand stall
				// younger work, so a dmb ishld overlaps with stores and
				// computation in vivo (the §4.3.1 divergence).
				barrierPending = true
				if cls&clsFullBar != 0 {
					fullBarrierPending = true
				}
				if cls&clsLdBar != 0 {
					loadBarrierPending = true
				}
			}
		case cls&clsLoad != 0:
			if e.state != stDone {
				olderLoadPending = true
				if cls&clsLoadAcq != 0 {
					loadBarrierPending = true
				}
			}
		case cls&clsStore != 0:
			if !e.addrOK {
				olderStoreAddrUnknown = true
			}
		case cls&clsCondBr != 0:
			if noSpec && e.state == stFetched {
				// Speculation ablation: unresolved branches order
				// younger loads like a load barrier would.
				loadBarrierPending = true
			}
		}
	}
	c.scanAllHard = !issued && !sawSoft
}

// complete finishes an issued instruction whose latency has elapsed.
func (c *core) complete(id int64, e *wentry, now int64) {
	if e.in.Op.IsLoad() && !e.fwd {
		c.readLoadValue(e, now)
	}
	e.state = stDone
}

// readLoadValue performs the actual memory read at satisfaction time.  On
// MCA storage the value is the coherent one; on non-MCA storage it is the
// core's propagated view.  Weak load-load behaviour therefore arises from
// loads being satisfied out of program order, which barriers, acquires and
// value dependencies constrain by ordering satisfaction times.
func (c *core) readLoadValue(e *wentry, now int64) {
	st := c.m.store
	addr := e.addr

	if e.in.Op == arch.LoadEx {
		// Exclusives read the coherent value and arm the monitor.
		// Obtaining the line coherently implies its propagation (and
		// that of everything channel-ordered before it) has reached
		// this core.
		val, seq := st.readCoherent(addr)
		e.val, e.tok = val, seq
		st.observeExclusive(c.id, addr, seq, now)
		c.monArmed, c.monAddr, c.monSeq = true, addr, seq
	} else {
		st.deliver(c.id, now)
		val, seq := st.readView(c.id, addr, now)
		e.val, e.tok = val, seq
	}
	st.noteObserved(c.id, addr, e.tok)
	if e.latCl != latHit {
		c.cache.fill(addr)
		c.m.store.touchLine(addr >> c.cache.lineShift)
	}
}

// ---------------------------------------------------------------- issue --

// Issue outcomes.  The hard/soft distinction powers the idle fast path: a
// hard block happened before any randomness was drawn and can only clear
// through one of this core's own timed events (a producer or barrier
// completing), so a cycle in which every fetched entry hard-blocks is
// exactly reproducible when skipped.  A soft block consumed RNG (or depends
// on state the scan cannot time), so the core must step every cycle.
const (
	issueOK   uint8 = iota // issued (or the machine failed)
	blockHard              // blocked before consuming RNG
	blockSoft              // blocked at or after the issue-jitter draw
)

// tryIssue attempts to issue entry e.  It returns issueOK if the entry
// issued, otherwise whether the block was hard or soft (a blocked entry
// does not consume an issue slot).
func (c *core) tryIssue(id int64, e *wentry, now int64,
	barrier, fullBarrier, loadBarrier, olderLoadPending, olderStoreAddrUnknown bool) uint8 {

	prof := c.m.prof
	in := e.in

	// A full barrier (dmb ish / hwsync / isb) stalls younger memory
	// accesses; any barrier stalls younger barriers (serialization).
	if fullBarrier && e.cls&clsMem != 0 {
		return blockHard
	}
	if barrier && e.cls&clsBarrier != 0 {
		return blockHard
	}
	if !c.prodReady(e.prod[0]) || !c.prodReady(e.prod[1]) {
		return blockHard
	}
	if in.ReadsFlags() && !c.prodReady(e.fprod) {
		return blockHard
	}
	if c.chooseBool(ChoiceIssueJitter, -1, prof.Pipe.IssueJitter) {
		return blockSoft
	}

	switch in.Op {
	case arch.Nop:
		e.state = stIssued
		e.readyAt = now + 1

	case arch.Work, arch.Halt:
		// Halts complete only at the head with an empty store buffer;
		// model that at retire by marking done here.
		e.state = stIssued
		e.readyAt = now + 1

	case arch.MovImm:
		e.val = in.Imm
		e.state, e.readyAt = stIssued, now+prof.Lat.ALU

	case arch.Mov:
		e.val = c.operandVal(id, in.Rn, e.prod[0])
		e.state, e.readyAt = stIssued, now+prof.Lat.ALU

	case arch.Add, arch.Sub, arch.And, arch.Orr, arch.Eor, arch.Mul:
		a := c.operandVal(id, in.Rn, e.prod[0])
		b := c.operandVal(id, in.Rm, e.prod[1])
		switch in.Op {
		case arch.Add:
			e.val = a + b
		case arch.Sub:
			e.val = a - b
		case arch.And:
			e.val = a & b
		case arch.Orr:
			e.val = a | b
		case arch.Eor:
			e.val = a ^ b
		case arch.Mul:
			e.val = a * b
		}
		lat := prof.Lat.ALU
		if in.Op == arch.Mul {
			lat = prof.Lat.Mul
		}
		e.state, e.readyAt = stIssued, now+lat

	case arch.AddImm, arch.SubImm, arch.Lsl, arch.Lsr, arch.SubsImm:
		a := c.operandVal(id, in.Rn, e.prod[0])
		switch in.Op {
		case arch.AddImm:
			e.val = a + in.Imm
		case arch.SubImm:
			e.val = a - in.Imm
		case arch.Lsl:
			e.val = a << uint(in.Imm)
		case arch.Lsr:
			e.val = int64(uint64(a) >> uint(in.Imm))
		case arch.SubsImm:
			e.val = a - in.Imm
			e.flagV = e.val
		}
		e.state, e.readyAt = stIssued, now+prof.Lat.ALU

	case arch.CmpImm:
		e.flagV = c.operandVal(id, in.Rn, e.prod[0]) - in.Imm
		e.state, e.readyAt = stIssued, now+prof.Lat.ALU

	case arch.Cmp:
		e.flagV = c.operandVal(id, in.Rn, e.prod[0]) - c.operandVal(id, in.Rm, e.prod[1])
		e.state, e.readyAt = stIssued, now+prof.Lat.ALU

	case arch.B:
		e.state, e.readyAt = stIssued, now+1

	case arch.Beq, arch.Bne, arch.Blt, arch.Bge:
		c.resolveBranch(id, e, now)

	case arch.Load, arch.LoadAcq, arch.LoadEx:
		return c.issueLoad(id, e, now, loadBarrier, olderStoreAddrUnknown)

	case arch.Store, arch.StoreRel:
		// Stores are "done" once address and data are known; the memory
		// effect happens at retire, through the store buffer.
		if !c.prodReady(e.prod[1]) {
			return blockSoft
		}
		e.addr = c.operandVal(id, in.Rn, e.prod[0]) + in.Imm
		if !c.checkAddr(e.addr) {
			return blockSoft
		}
		e.addrOK = true
		e.val = c.operandVal(id, in.Rd, e.prod[1])
		e.state, e.readyAt = stIssued, now+1

	case arch.StoreEx:
		return c.issueStoreEx(id, e, now)

	case arch.Barrier:
		return c.issueBarrier(id, e, now, olderLoadPending)

	default:
		c.m.fail(fmt.Errorf("core %d: unknown opcode %v at pc %d", c.id, in.Op, e.pc))
	}
	return issueOK
}

func (c *core) resolveBranch(id int64, e *wentry, now int64) {
	fp := e.fprod
	var fv int64
	if fp == noProd || fp < c.retireID {
		fv = c.flagV
	} else {
		fv = c.slot(fp).flagV
	}
	var taken bool
	switch e.in.Op {
	case arch.Beq:
		taken = fv == 0
	case arch.Bne:
		taken = fv != 0
	case arch.Blt:
		taken = fv < 0
	case arch.Bge:
		taken = fv >= 0
	}
	c.pred.update(e.pc, taken)
	e.state, e.readyAt = stIssued, now+1
	if taken == e.predTak {
		return
	}
	// A "mispredicted" branch whose actual target coincides with the path
	// fetch already took (e.g. a conditional branch to the next
	// instruction, as in the ctrl litmus shapes and the paper's ctrl
	// read_barrier_depends strategy) costs nothing: the fetched stream is
	// correct either way.
	actualNext := e.pc + 1
	if taken {
		actualNext = e.in.Target
	}
	predictedNext := e.pc + 1
	if e.predTak {
		predictedNext = e.in.Target
	}
	if actualNext == predictedNext {
		return
	}
	// Misprediction: squash everything younger and restart fetch.
	c.stats.Mispredicts++
	c.squashAfter(id)
	if taken {
		c.fetchPC = e.in.Target
	} else {
		c.fetchPC = e.pc + 1
	}
	c.fetchHalted = false
	c.fetchStallUntil = now + c.m.prof.Lat.Mispredict
}

// squashAfter removes all window entries younger than id and rebuilds the
// producer maps.
func (c *core) squashAfter(id int64) {
	c.stats.Squashes += uint64(c.nextID - id - 1)
	c.nextID = id + 1
	for i := range c.regProd {
		c.regProd[i] = noProd
	}
	c.flagProd = noProd
	c.nFetched = 0
	for i := c.retireID; i < c.nextID; i++ {
		e := c.slot(i)
		if e.state == stFetched {
			c.nFetched++
		}
		if rd, ok := e.in.Writes(); ok {
			c.regProd[rd] = i
		}
		if e.in.SetsFlags() {
			c.flagProd = i
		}
	}
}

// checkAddr reports whether addr is a valid memory address.  Out-of-range
// addresses block issue rather than failing the machine: instructions on a
// mispredicted path can compute arbitrary addresses and will be squashed; a
// genuinely bad program eventually trips the retirement watchdog instead.
func (c *core) checkAddr(addr int64) bool {
	return addr >= 0 && addr < int64(c.m.memWords)
}

func (c *core) issueLoad(id int64, e *wentry, now int64, loadBarrier, olderStoreAddrUnknown bool) uint8 {
	prof := c.m.prof
	if loadBarrier {
		return blockSoft
	}
	if olderStoreAddrUnknown {
		// No speculative memory disambiguation: wait until all older
		// store addresses are known.
		return blockSoft
	}
	addr := c.operandVal(id, e.in.Rn, e.prod[0]) + e.in.Imm
	if !c.checkAddr(addr) {
		return blockSoft
	}
	e.addr = addr
	e.addrOK = true

	if e.in.Op == arch.LoadAcq {
		// stlr→ldar (RCsc): an acquire load may not satisfy while a
		// release store from this core is still buffered, nor while an
		// older release store is still in the window awaiting retirement
		// (it will enter the buffer later; satisfying the load now would
		// order it before the release, which ARMv8 forbids — this is
		// what makes the ldar/stlr volatile mapping sequentially
		// consistent).
		for i := range c.sb {
			if c.sb[i].release {
				return blockSoft
			}
		}
		for i := c.retireID; i < id; i++ {
			if c.slot(i).in.Op == arch.StoreRel {
				return blockSoft
			}
		}
	}

	// Same-address ordering: loads to one location satisfy in program
	// order (preserves per-location coherence, CoRR).  An older load whose
	// address is not yet computable blocks this one: we do not speculate
	// on load-load disambiguation.
	for i := c.retireID; i < id; i++ {
		o := c.slot(i)
		if o.cls&clsLoad == 0 || o.state == stDone {
			continue
		}
		oaddr := o.addr
		if !o.addrOK {
			if !c.prodReady(o.prod[0]) {
				return blockSoft
			}
			oaddr = c.operandVal(i, o.in.Rn, o.prod[0]) + o.in.Imm
		}
		if oaddr == addr {
			return blockSoft
		}
	}

	if e.in.Op == arch.LoadEx {
		// Exclusive loads must read coherent memory so the monitor is
		// armed against the true coherence state: wait for any older
		// buffered store to the same address to drain first.
		for i := id - 1; i >= c.retireID; i-- {
			o := c.slot(i)
			if o.cls&clsStore != 0 && o.addrOK && o.addr == addr {
				return blockSoft
			}
		}
		for i := range c.sb {
			if !c.sb[i].fence && c.sb[i].addr == addr {
				return blockSoft
			}
		}
	} else {
		// Store-to-load forwarding: youngest older store to the same
		// address, in the window or the store buffer.
		for i := id - 1; i >= c.retireID; i-- {
			o := c.slot(i)
			if o.cls&clsStore == 0 || !o.addrOK || o.addr != addr {
				continue
			}
			if o.in.Op == arch.StoreEx {
				break // already committed to storage; read it from there
			}
			if o.state != stDone {
				return blockSoft // value not ready yet
			}
			e.val = o.val
			e.fwd = true
			e.tok = 0
			e.state, e.readyAt, e.latCl = stIssued, now+1, latFwd
			c.stats.Loads++
			return issueOK
		}
		for i := len(c.sb) - 1; i >= 0; i-- {
			s := &c.sb[i]
			if !s.fence && s.addr == addr {
				e.val = s.val
				e.fwd = true
				e.state, e.readyAt, e.latCl = stIssued, now+1, latFwd
				c.stats.Loads++
				return issueOK
			}
		}
	}

	lat := int64(0)
	if c.cache.probe(addr) {
		lat = prof.Lat.L1Hit
		e.latCl = latHit
		c.stats.L1Hits++
	} else {
		line := addr >> c.cache.lineShift
		if c.m.store.lineTouched(line) {
			lat = prof.Lat.L2Hit
			e.latCl = latL2
		} else {
			lat = prof.Lat.Mem
			e.latCl = latMem
		}
		lat += prof.Lat.L1Fill
		c.stats.L1Misses++
	}
	if e.in.Op == arch.LoadAcq {
		lat += prof.Lat.AcqIssue
	}
	// Bank-conflict / memory-scheduling jitter: a small random latency
	// component that both spreads repeated samples and perturbs the
	// relative satisfaction order of independent loads.
	if c.chooseBool(ChoiceLoadJitter, addr, prof.Pipe.IssueJitter*8) {
		lat += 1 + c.chooseIntn(ChoiceLoadJitterLat, addr, 4)
	}
	e.state, e.readyAt = stIssued, now+lat
	c.stats.Loads++
	return issueOK
}

func (c *core) issueStoreEx(id int64, e *wentry, now int64) uint8 {
	// Store-exclusives serialize: they perform their check-and-commit
	// atomically when they are the oldest un-retired instruction.
	if id != c.retireID {
		return blockSoft
	}
	// The exclusive commits to the coherent point directly, bypassing the
	// store buffer; it therefore may not run ahead of an ordering marker
	// (dmb ishst / lwsync) or a release store still buffered, or it would
	// reorder across an explicit fence.  Plain buffered stores may still
	// be bypassed — that is ordinary (architecturally allowed)
	// store-store reordering.
	for i := range c.sb {
		if c.sb[i].fence || c.sb[i].release {
			return blockSoft
		}
	}
	if !c.prodReady(e.prod[1]) {
		return blockSoft
	}
	addr := c.operandVal(id, e.in.Rn, e.prod[0]) + e.in.Imm
	if !c.checkAddr(addr) {
		return blockSoft
	}
	e.addr, e.addrOK = addr, true
	val := c.operandVal(id, e.in.Rm, e.prod[1])

	_, seq := c.m.store.readCoherent(addr)
	if c.monArmed && c.monAddr == addr && c.monSeq == seq {
		c.m.store.commitStore(c.id, addr, val, now)
		e.val = 0
		c.stats.Stores++
	} else {
		e.val = 1
	}
	c.monArmed = false
	e.state, e.readyAt = stIssued, now+c.m.prof.Lat.L1Hit+1
	return issueOK
}

func (c *core) issueBarrier(id int64, e *wentry, now int64, olderLoadPending bool) uint8 {
	prof := c.m.prof
	cost := prof.Lat.BarrierIssue[e.in.Kind]
	switch e.in.Kind {
	case arch.DMBIsh, arch.HwSync:
		if id != c.retireID || len(c.sb) != 0 {
			return blockSoft
		}
		if e.in.Kind == arch.HwSync {
			if ack := c.m.store.visibleAllBy(c.id); ack > now {
				return blockSoft
			}
		}
		e.state, e.readyAt = stIssued, now+cost

	case arch.DMBIshLd:
		if olderLoadPending {
			return blockSoft
		}
		e.state, e.readyAt = stIssued, now+cost

	case arch.LwSync:
		if olderLoadPending {
			return blockSoft
		}
		e.state, e.readyAt = stIssued, now+cost

	case arch.DMBIshSt:
		e.state, e.readyAt = stIssued, now+cost

	case arch.ISB:
		if id != c.retireID {
			return blockSoft
		}
		e.state, e.readyAt = stIssued, now+cost

	default:
		c.m.fail(fmt.Errorf("core %d: bad barrier kind %v", c.id, e.in.Kind))
	}
	return issueOK
}

// --------------------------------------------------------------- retire --

func (c *core) retire(now int64) {
	prof := c.m.prof
	for n := 0; n < prof.Pipe.RetireWidth && c.live() > 0; n++ {
		id := c.retireID
		e := c.slot(id)
		if e.state != stDone {
			return
		}
		in := e.in
		switch {
		case in.Op.IsStore() && in.Op != arch.StoreEx:
			if len(c.sb) >= prof.Pipe.SBDepth {
				return // store buffer full: stall retirement
			}
			// Ownership-acquisition time varies per line (directory
			// state, contention); the variance is what lets a younger
			// ready store drain past a stuck head.
			drain := prof.Lat.StoreDrain + c.chooseIntn(ChoiceStoreDrain, e.addr, prof.Lat.StoreDrain+1)
			c.sb = append(c.sb, sbEntry{
				addr: e.addr, val: e.val,
				ready:   now + drain,
				site:    in.Site,
				release: in.Op == arch.StoreRel,
			})
			c.stats.Stores++

		case in.Op == arch.Barrier:
			c.stats.Barriers++
			switch in.Kind {
			case arch.DMBIshSt, arch.LwSync:
				// Store-side ordering: later stores may not be
				// committed (or propagated) before earlier ones.
				c.sb = append(c.sb, sbEntry{fence: true})
			case arch.ISB:
				// Context synchronization: discard all speculative
				// work and restart fetch after the flush penalty.
				c.squashAfter(id)
				c.fetchPC = e.pc + 1
				c.fetchHalted = false
				c.fetchStallUntil = now + prof.Lat.ISBFlush
			}

		case in.Op == arch.Work:
			c.stats.Work += in.Imm
			if c.recordWork && len(c.stats.WorkTimes) < maxWorkTimes {
				c.stats.WorkTimes = append(c.stats.WorkTimes, now)
			}

		case in.Op == arch.Halt:
			if len(c.sb) != 0 {
				return // drain before halting
			}
			c.halted = true
			c.retireID++
			c.stats.Retired++
			c.retiredEver++
			c.lastRet = now
			return
		}

		if rd, ok := in.Writes(); ok {
			c.regs[rd] = e.val
			if c.regProd[rd] == id {
				c.regProd[rd] = noProd
			}
		}
		if in.SetsFlags() {
			c.flagV = e.flagV
			if c.flagProd == id {
				c.flagProd = noProd
			}
		}
		c.m.countSite(c.id, in.Site)
		if c.m.tracer != nil {
			c.emitTrace(now, e)
		}
		c.retireID++
		c.stats.Retired++
		c.retiredEver++
		c.lastRet = now
	}
}

// -------------------------------------------------------------- storebuf --

func (c *core) drainSB(now int64) {
	if len(c.sb) == 0 || now < c.nextCommitAt {
		return
	}
	// Pop leading fence markers for free.
	for len(c.sb) > 0 && c.sb[0].fence {
		c.m.store.fence(c.id)
		c.sb = c.sb[:copy(c.sb, c.sb[1:])]
	}
	if len(c.sb) == 0 {
		return
	}
	idx := 0
	if c.sb[0].ready > now {
		// The head store has not yet acquired its line.  A younger store
		// to a different line whose ownership is already held may commit
		// first (write combining / out-of-order drain) — this is the
		// store-store reordering that dmb ishst and lwsync forbid, which
		// the fence markers in the buffer prevent here.
		if len(c.sb) > 1 && c.sb[1].ready <= now &&
			!c.sb[0].release && !c.sb[1].release && !c.sb[1].fence &&
			c.sb[0].addr>>c.cache.lineShift != c.sb[1].addr>>c.cache.lineShift &&
			c.chooseBool(ChoiceSBCombine, c.sb[0].addr, storeCombinePermille) {
			idx = 1
			// The bypassed head stays stuck for a while longer (its
			// line is genuinely unavailable), which is what makes the
			// reordering externally observable.
			c.sb[0].ready = now + c.chooseRange(ChoiceSBStick, c.sb[0].addr, 20, 60)
		} else {
			return
		}
	}
	e := c.sb[idx]
	if e.release {
		// Release stores close the propagation group before committing
		// and reopen it after, so nothing moves across them.
		c.m.store.fence(c.id)
	}
	c.m.store.commitStore(c.id, e.addr, e.val, now)
	if e.release {
		c.m.store.fence(c.id)
	}
	c.sb = append(c.sb[:idx], c.sb[idx+1:]...)
	c.nextCommitAt = now + c.m.prof.Lat.StoreCommit
}

// storeCombinePermille is the probability (per mille) that the store buffer
// commits out of order across different cache lines when permitted.
const storeCombinePermille = 300

// maxWorkTimes bounds the per-core work-timestamp recording.
const maxWorkTimes = 8192
