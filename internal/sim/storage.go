package sim

import "math/bits"

// storage abstracts the machine's shared-memory subsystem.  Two
// implementations exist:
//
//   - mcaStorage: other-multi-copy-atomic (the ARMv8 profile).  A store
//     becomes visible to every core the moment it commits from the store
//     buffer; observable weakness comes from store buffers (with
//     forwarding) and from loads being *satisfied* out of program order.
//
//   - nonMCAStorage: non-multi-copy-atomic (the POWER profile).  A
//     committed store propagates to each other core after an independent
//     random delay, subject to per-channel group ordering (the cumulativity
//     of lwsync/hwsync and release stores), so IRIW-style disagreement
//     between observers is possible.
//
// In both cases loads read the value visible at their satisfaction time;
// private caches are a timing model only (see l1).
type storage interface {
	// commitStore publishes a store by core at time now.
	commitStore(core int, addr, val int64, now int64)
	// fence closes core's current propagation group: stores committed
	// after the fence may not reach any observer before stores committed
	// before it (store-side cumulativity).  No-op on MCA storage.
	fence(core int)
	// readView returns the value of addr visible to core at time now,
	// together with the commit sequence of the write that produced it.
	readView(core int, addr int64, now int64) (int64, uint64)
	// readCoherent returns the globally newest value of addr and its
	// commit sequence (used by exclusives).
	readCoherent(addr int64) (int64, uint64)
	// commitSeq returns the global commit counter.
	commitSeq() uint64
	// deliver applies propagation arrivals for core up to time now.
	deliver(core int, now int64)
	// visibleAllBy returns, for non-MCA storage, the earliest time by
	// which every store core has observed (including its own committed
	// stores) is visible to all cores; hwsync waits for it.  MCA storage
	// returns 0: commitment is global visibility.
	visibleAllBy(core int) int64
	// noteObserved records that core observed the write identified by
	// seq at addr (cumulativity bookkeeping).
	noteObserved(core int, addr int64, seq uint64)
	// observeExclusive records that core read the master-latest write at
	// addr through the coherence protocol (ldxr/larx).  On non-MCA
	// storage this forces the core's view to catch up to that write's
	// arrival: obtaining the line coherently IS its propagation, so
	// everything channel-ordered before it (a releasing store's data)
	// becomes visible too.
	observeExclusive(core int, addr int64, seq uint64, now int64)
	// lineTouched reports whether any core has accessed the line before
	// (first-touch misses cost memory latency; later ones L2 latency).
	lineTouched(line int64) bool
	touchLine(line int64)
	// write initialises memory before the run begins.
	write(addr, val int64)
	// read returns the final coherent value (post-run inspection).
	read(addr int64) int64
	// reset restores the just-constructed state, retaining allocations.
	// seed re-derives the propagation RNG on non-MCA storage (ignored by
	// MCA storage, which consumes no randomness).
	reset(seed uint64)
	// setChoices installs (or clears) the machine's ChoiceSource for
	// the storage subsystem's own draws.  No-op on MCA storage.
	setChoices(cs ChoiceSource)
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int64) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) add(i int64)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) reset()           { clear(b) }

// each calls fn for every member, in increasing order.
func (b bitset) each(fn func(i int64)) {
	for w, word := range b {
		for word != 0 {
			fn(int64(w)<<6 | int64(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// clearMembers zeroes every member's index in every array, assuming the
// arrays are already zero outside the set.  A 64-index block holding a
// few members is cleared a store per member; runs of blocks holding
// more are cleared with one memclr per run and array, so clearing a
// dense set costs about what clearing every array whole does.
func clearMembers[T int64 | uint64](b bitset, arrays ...[]T) {
	const sparse = 8 // members per block cleared one store at a time
	for w := 0; w < len(b); w++ {
		if word := b[w]; bits.OnesCount64(word) <= sparse {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				for _, a := range arrays {
					a[i] = 0
				}
			}
			continue
		}
		lo := w << 6
		for w+1 < len(b) && bits.OnesCount64(b[w+1]) > sparse {
			w++
		}
		for _, a := range arrays {
			clear(a[lo:min((w+1)<<6, len(a))])
		}
	}
}

// touchSet tracks first-touch state per cache line.
type touchSet struct {
	bits      bitset
	lineShift uint
}

func newTouchSet(memWords int, lineWords int) *touchSet {
	var shift uint
	for w := lineWords; w > 1; w >>= 1 {
		shift++
	}
	return &touchSet{bits: newBitset((memWords >> shift) + 1), lineShift: shift}
}

func (t *touchSet) touched(line int64) bool { return t.bits.has(line) }
func (t *touchSet) touch(line int64)        { t.bits.add(line) }
func (t *touchSet) reset()                  { t.bits.reset() }

// mcaStorage is the other-multi-copy-atomic storage subsystem.
type mcaStorage struct {
	mem []int64
	seq []uint64
	// written holds every word write or commitStore has set: mem and seq
	// are zero outside it, so Fingerprint walks it and Reset clears just
	// its words (clearMembers) instead of the whole memory.
	written bitset
	commit  uint64
	caches  []*l1 // per-core private caches (timing invalidation sinks)
	touch   *touchSet
}

func newMCAStorage(memWords, lineWords int, caches []*l1) *mcaStorage {
	return &mcaStorage{
		mem:     make([]int64, memWords),
		seq:     make([]uint64, memWords),
		written: newBitset(memWords),
		caches:  caches,
		touch:   newTouchSet(memWords, lineWords),
	}
}

func (s *mcaStorage) commitStore(core int, addr, val int64, now int64) {
	s.commit++
	s.written.add(addr)
	s.mem[addr] = val
	s.seq[addr] = s.commit
	// The line now exists in the writer's cache hierarchy: remote misses
	// are serviced by cache-to-cache transfer (L2 latency), not memory.
	s.touch.touch(addr >> s.touch.lineShift)
	for i, c := range s.caches {
		if i == core {
			// Write-allocate into the committing core's own cache.
			c.fill(addr)
			continue
		}
		c.invalidate(addr)
	}
}

func (s *mcaStorage) fence(int) {}

func (s *mcaStorage) readView(_ int, addr int64, _ int64) (int64, uint64) {
	return s.mem[addr], s.seq[addr]
}

func (s *mcaStorage) readCoherent(addr int64) (int64, uint64) {
	return s.mem[addr], s.seq[addr]
}

func (s *mcaStorage) commitSeq() uint64 { return s.commit }

func (s *mcaStorage) deliver(int, int64) {}

func (s *mcaStorage) visibleAllBy(int) int64 { return 0 }

func (s *mcaStorage) noteObserved(int, int64, uint64) {}

func (s *mcaStorage) observeExclusive(int, int64, uint64, int64) {}

func (s *mcaStorage) lineTouched(line int64) bool { return s.touch.touched(line) }
func (s *mcaStorage) touchLine(line int64)        { s.touch.touch(line) }

func (s *mcaStorage) write(addr, val int64) {
	s.mem[addr] = val
	s.written.add(addr)
}

func (s *mcaStorage) read(addr int64) int64 { return s.mem[addr] }

func (s *mcaStorage) setChoices(ChoiceSource) {}

func (s *mcaStorage) reset(uint64) {
	clearMembers(s.written, s.mem)
	clearMembers(s.written, s.seq)
	s.written.reset()
	s.commit = 0
	s.touch.reset()
}

// propEvent is a store propagating towards one destination core.
type propEvent struct {
	arrive int64
	addr   int64
	val    int64
	seq    uint64
	visAll int64
}

// propHeap is a binary min-heap of propagation events ordered by arrival.
type propHeap struct{ ev []propEvent }

func (h *propHeap) push(e propEvent) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ev[p].arrive <= h.ev[i].arrive {
			break
		}
		h.ev[p], h.ev[i] = h.ev[i], h.ev[p]
		i = p
	}
}

func (h *propHeap) peek() (propEvent, bool) {
	if len(h.ev) == 0 {
		return propEvent{}, false
	}
	return h.ev[0], true
}

func (h *propHeap) pop() propEvent {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.ev) && h.ev[l].arrive < h.ev[m].arrive {
			m = l
		}
		if r < len(h.ev) && h.ev[r].arrive < h.ev[m].arrive {
			m = r
		}
		if m == i {
			break
		}
		h.ev[i], h.ev[m] = h.ev[m], h.ev[i]
		i = m
	}
	return top
}

// nonMCAStorage is the POWER-style storage subsystem.
type nonMCAStorage struct {
	master []int64
	seq    []uint64
	// masterVis is the visible-everywhere time of the latest write per
	// location.  Exclusives read the master directly, so their
	// cumulativity bookkeeping must use it: a core that acquires a lock
	// via larx/ldxr has observed the releasing store, and its next
	// hwsync must wait until everything ordered before that store (the
	// release's group) has reached this core.
	masterVis []int64
	// written holds every word write or commitStore has set.  deliver and
	// observeExclusive only install writes committed first, so every
	// per-word array — master, seq, masterVis and each core's view — is
	// zero outside it, so Fingerprint walks it and Reset clears just its
	// words (clearMembers) instead of the whole memory.
	written bitset
	commit  uint64

	cores int
	// Per-core view of memory: the newest value/seq that has propagated
	// to the core, plus the visible-everywhere time of that write (for
	// hwsync cumulativity).
	views   [][]int64
	viewSeq [][]uint64
	viewVis [][]int64

	queues []propHeap

	// Per (src,dst) channel ordering state for propagation groups:
	// floor is the arrival time that stores from the current group may
	// not precede; cur is the maximum arrival handed out so far.
	floor [][]int64
	cur   [][]int64

	// readAck/ownAck track, per core, the latest visible-everywhere time
	// among writes the core has observed / committed.
	readAck []int64
	ownAck  []int64

	caches   []*l1
	touch    *touchSet
	propMin  int64
	propMax  int64
	propTail int
	rnd      rng
	choices  ChoiceSource
}

func newNonMCAStorage(memWords, lineWords, cores int, propMin, propMax int64, propTail int, seed uint64, caches []*l1) *nonMCAStorage {
	s := &nonMCAStorage{
		master:    make([]int64, memWords),
		seq:       make([]uint64, memWords),
		masterVis: make([]int64, memWords),
		written:   newBitset(memWords),
		cores:     cores,
		views:     make([][]int64, cores),
		viewSeq:   make([][]uint64, cores),
		viewVis:   make([][]int64, cores),
		queues:    make([]propHeap, cores),
		floor:     make([][]int64, cores),
		cur:       make([][]int64, cores),
		readAck:   make([]int64, cores),
		ownAck:    make([]int64, cores),
		caches:    caches,
		touch:     newTouchSet(memWords, lineWords),
		propMin:   propMin,
		propMax:   propMax,
		propTail:  propTail,
		rnd:       newRNG(seed ^ 0xabcdef12345),
	}
	for i := 0; i < cores; i++ {
		s.views[i] = make([]int64, memWords)
		s.viewSeq[i] = make([]uint64, memWords)
		s.viewVis[i] = make([]int64, memWords)
		s.floor[i] = make([]int64, cores)
		s.cur[i] = make([]int64, cores)
	}
	return s
}

func (s *nonMCAStorage) commitStore(core int, addr, val int64, now int64) {
	s.commit++
	seq := s.commit
	s.written.add(addr)
	s.master[addr] = val
	s.seq[addr] = seq

	// Sample per-destination arrival times, respecting the channel group
	// floors, then compute the visible-everywhere time.
	visAll := now
	var arrivals [64]int64
	for d := 0; d < s.cores; d++ {
		if d == core {
			continue
		}
		delay := s.chooseRange(ChoicePropDelay, core, d, addr, s.propMin, s.propMax)
		// Heavy tail: occasionally a line is stuck (dirty in a remote
		// cache, directory contention) and takes much longer to reach
		// one particular observer.  This is what makes WRC/IRIW-style
		// disagreement observable on real non-MCA machines.
		if s.chooseBool(ChoicePropTail, core, d, addr, s.propTail) {
			delay += s.chooseRange(ChoicePropTailExtra, core, d, addr, 100, 400)
		}
		a := now + delay
		if f := s.floor[core][d]; a < f {
			a = f
		}
		if a > s.cur[core][d] {
			s.cur[core][d] = a
		}
		arrivals[d] = a
		if a > visAll {
			visAll = a
		}
	}
	// The line now exists in the writer's cache hierarchy: remote misses
	// are serviced by cache-to-cache transfer (L2 latency), not memory.
	s.touch.touch(addr >> s.touch.lineShift)
	s.masterVis[addr] = visAll
	// The committing core sees its own store immediately.
	if seq > s.viewSeq[core][addr] {
		s.views[core][addr] = val
		s.viewSeq[core][addr] = seq
		s.viewVis[core][addr] = visAll
	}
	if visAll > s.ownAck[core] {
		s.ownAck[core] = visAll
	}
	for d := 0; d < s.cores; d++ {
		if d == core {
			continue
		}
		s.queues[d].push(propEvent{arrive: arrivals[d], addr: addr, val: val, seq: seq, visAll: visAll})
	}
	s.caches[core].fill(addr)
}

func (s *nonMCAStorage) fence(core int) {
	for d := 0; d < s.cores; d++ {
		if s.cur[core][d] > s.floor[core][d] {
			s.floor[core][d] = s.cur[core][d]
		}
	}
}

func (s *nonMCAStorage) deliver(core int, now int64) {
	q := &s.queues[core]
	for {
		e, ok := q.peek()
		if !ok || e.arrive > now {
			return
		}
		q.pop()
		// The arrival is what invalidates the destination's cached line:
		// until it arrives, the core keeps hitting (and seeing) its old
		// view, which is exactly non-multi-copy-atomic behaviour.
		s.caches[core].invalidate(e.addr)
		if e.seq > s.viewSeq[core][e.addr] {
			s.views[core][e.addr] = e.val
			s.viewSeq[core][e.addr] = e.seq
			s.viewVis[core][e.addr] = e.visAll
		}
	}
}

func (s *nonMCAStorage) readView(core int, addr int64, _ int64) (int64, uint64) {
	return s.views[core][addr], s.viewSeq[core][addr]
}

func (s *nonMCAStorage) readCoherent(addr int64) (int64, uint64) {
	return s.master[addr], s.seq[addr]
}

func (s *nonMCAStorage) commitSeq() uint64 { return s.commit }

func (s *nonMCAStorage) visibleAllBy(core int) int64 {
	if s.readAck[core] > s.ownAck[core] {
		return s.readAck[core]
	}
	return s.ownAck[core]
}

func (s *nonMCAStorage) noteObserved(core int, addr int64, seq uint64) {
	if seq == 0 {
		return
	}
	v := s.viewVis[core][addr]
	if seq == s.seq[addr] && s.masterVis[addr] > v {
		// The observed write is the master-latest (an exclusive read):
		// its visible-everywhere time governs.
		v = s.masterVis[addr]
	}
	if v > s.readAck[core] {
		s.readAck[core] = v
	}
}

func (s *nonMCAStorage) observeExclusive(core int, addr int64, seq uint64, now int64) {
	if seq == 0 || s.viewSeq[core][addr] >= seq {
		return
	}
	// Find the pending arrival of the observed write and deliver
	// everything scheduled up to that moment: the channel-group floors
	// guarantee that covers all stores ordered before it.
	q := &s.queues[core]
	arrive := int64(-1)
	for _, e := range q.ev {
		if e.addr == addr && e.seq == seq {
			arrive = e.arrive
			break
		}
	}
	if arrive >= 0 {
		s.deliver(core, arrive)
	}
	// Install the observed write itself regardless.
	if seq > s.viewSeq[core][addr] {
		s.views[core][addr] = s.master[addr]
		s.viewSeq[core][addr] = seq
		s.viewVis[core][addr] = s.masterVis[addr]
	}
}

func (s *nonMCAStorage) setChoices(cs ChoiceSource) { s.choices = cs }

func (s *nonMCAStorage) lineTouched(line int64) bool { return s.touch.touched(line) }
func (s *nonMCAStorage) touchLine(line int64)        { s.touch.touch(line) }

func (s *nonMCAStorage) write(addr, val int64) {
	s.master[addr] = val
	s.written.add(addr)
	for c := 0; c < s.cores; c++ {
		s.views[c][addr] = val
	}
}

func (s *nonMCAStorage) read(addr int64) int64 { return s.master[addr] }

func (s *nonMCAStorage) reset(seed uint64) {
	clearMembers(s.written, s.master, s.masterVis)
	clearMembers(s.written, s.seq)
	clearMembers(s.written, s.views...)
	clearMembers(s.written, s.viewSeq...)
	clearMembers(s.written, s.viewVis...)
	s.written.reset()
	s.commit = 0
	for c := 0; c < s.cores; c++ {
		s.queues[c].ev = s.queues[c].ev[:0]
		f, cu := s.floor[c], s.cur[c]
		for i := range f {
			f[i] = 0
		}
		for i := range cu {
			cu[i] = 0
		}
		s.readAck[c], s.ownAck[c] = 0, 0
	}
	s.touch.reset()
	s.rnd = newRNG(seed ^ 0xabcdef12345)
}
