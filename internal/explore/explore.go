// Package explore turns the sampling simulator into an exhaustive one:
// it enumerates, for a small bounded program (a litmus test), every
// final-memory outcome reachable under a finite abstraction of the
// machine's nondeterminism, with a replayable witness per outcome.
//
// # How it works
//
// Every random decision in internal/sim flows through the pluggable
// sim.ChoiceSource interface.  The explorer installs a controlling
// source that resolves each decision from a finite domain and runs the
// machine once per resolution path, enumerating paths by depth-first
// search over a work-stack of pick prefixes: a run replays a recorded
// prefix of picks and then picks the first element of every remaining
// domain, scheduling the untried alternatives of each multi-valued
// post-prefix choice as new prefixes.  Per-thread program alignment
// (the litmus delay loop) is explored the same way, as a virtual choice
// made before the machine starts.
//
// # Reductions
//
// Exhaustive over the raw domains is hopeless (a single propagation
// delay alone has PropMax-PropMin+1 values), so the explorer applies
// two reductions:
//
//   - Delay extremality: integer delay choices range over their extreme
//     values only ({min, max}, plus max+tail for heavy-tailed
//     propagation), and scheduling jitter (issue/load jitter, which
//     perturbs timing by a cycle or two without enabling reorderings
//     that delay extremes and alignment sweeps cannot) is pinned off.
//     The rationale: reorderings observable in final memory flip at
//     delay-order thresholds, and the extreme points reach both sides
//     of every threshold the sampled distributions can reach.  This is
//     an abstraction, not a theorem about the simulator; it is kept
//     honest by the conformance superset test, which checks that every
//     outcome the sampling runner has ever observed is contained in the
//     enumerated set.
//
//   - Sleep-set-style store-combine collapsing: the out-of-order
//     store-buffer commit probability is re-drawn every cycle while a
//     head store is stuck, which would branch the tree at every such
//     cycle.  The explorer branches only the first opportunity per
//     core; declining puts the core's combine choice to sleep for the
//     rest of the run ("combine at the first opportunity or not at
//     all"), which preserves the visible reordering while collapsing
//     the when-exactly dimension.
//
// Independent propagation events are partial-order reduced implicitly:
// the per-destination delay choices of one committed store are factored
// into independent per-destination domains rather than interleavings,
// and state dedup (below) merges the resolution orders that converge.
//
// # State dedup
//
// At every multi-valued choice point past the replayed prefix the
// explorer fingerprints the machine (sim.Machine.Fingerprint — full
// architectural + microarchitectural + storage state, times normalised
// to the current cycle) combined with the choice descriptor and the
// choice ordinal within the current cycle.  If the fingerprint was seen
// before, the subtree rooted here is already covered by the first
// visitor, so the run continues on default picks but schedules no
// further alternatives.  Dedup trusts the 64-bit hash, as stateless
// model checkers conventionally do.
//
// The fingerprint covers the machine but not the controller's combine
// sleep set, and a core whose combine is asleep has a smaller choice
// domain.  So each fingerprint records every sleep mask it was explored
// under, and a revisit is stopped only if some recorded mask is a
// subset of the visitor's.  That is sound because the sleep set only
// grows along a run: a visitor with at least the first visitor's cores
// asleep faces, at every later choice, a subset of the first visitor's
// domain, so its subtree is contained in the one already scheduled.
// The masks are never narrowed to their intersection: visits under {a}
// and {b} do not cover a visitor with nothing asleep.
//
// The machine is fingerprinted only where the result is consulted.
// Replaying the prefix, continuing after a dedup hit and replaying a
// witness all resolve choices without looking anything up, so they skip
// the hash; only the per-cycle ordinal is kept up to date at every
// multi-valued choice.  The hash itself costs what the run touched: the
// predictor and cache sections are sparse, and memory is walked over
// the storage's written-word set (see internal/sim/fingerprint.go).
package explore

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/arch"
	"repro/internal/sim"
)

// Spec describes one bounded program to explore.
type Spec struct {
	// Prof is the architecture profile (already stress-adjusted if the
	// caller wants elevated propagation tails).
	Prof *arch.Profile
	// Threads is the number of hardware threads.
	Threads int
	// Build emits thread's program into b, an empty builder, given its
	// alignment stagger (the number of delay-loop iterations to insert;
	// 0 = none).  It must be deterministic.
	Build func(b *arch.Builder, thread int, stagger int64)
	// Shared lists the shared lines: each is resident in the outer
	// hierarchy when a run starts, and only their timing choices get
	// extremal domains; stores to other addresses (private result
	// slots) resolve to the minimum without branching.
	Shared []int64
	// Watch lists the addresses whose final values define an outcome.
	Watch []int64
	// Stagger is the alignment domain applied independently to every
	// thread.  Alignment matters in both directions — a reader arriving
	// before or after a writer reaches different outcomes — so no
	// thread is pinned.  Empty = DefaultStagger(Threads).
	Stagger []int64
	// MaxRuns bounds the exploration (default 400_000); exceeding it
	// yields Complete == false.
	MaxRuns int
	// StopOutcome, when non-nil, halts the exploration as soon as a
	// newly recorded outcome's watched values satisfy it.  Callers
	// proving reachability (an Allowed litmus expectation) use it to
	// avoid enumerating the full tree; the report is Complete only if
	// the tree happened to be exhausted anyway.
	StopOutcome func(values []int64) bool
}

// DefaultStagger returns the per-thread alignment domain: denser for
// few threads (the cross product is the domain size to the power of the
// thread count), coarser for many.  Values are delay-loop iterations;
// one iteration is roughly two cycles.
func DefaultStagger(threads int) []int64 {
	switch {
	case threads <= 2:
		return []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48}
	case threads == 3:
		return []int64{0, 1, 2, 4, 8, 16, 32}
	default:
		return []int64{0, 4, 12, 32}
	}
}

// Outcome is one reachable final-memory state over the watched
// addresses, with the pick sequence of the first run that produced it.
type Outcome struct {
	// Values holds the final values of Spec.Watch, in order.
	Values []int64
	// Key is the canonical "v0/v1/..." rendering of Values.
	Key string
	// Picks replays this outcome's witness run (see Replay).
	Picks []int
}

// Report is the result of an exploration.
type Report struct {
	// Outcomes are the reachable outcomes, sorted by Key.
	Outcomes []Outcome
	// Runs is the number of machine runs performed.
	Runs int
	// States is the number of distinct deduplicated choice-point
	// states.
	States int
	// Complete reports whether the choice tree was exhausted.  False
	// means MaxRuns truncated the search: the outcome set is still
	// sound (every outcome was reached by a real run) but not
	// necessarily complete.
	Complete bool
}

// Mem returns outcome o's value at a watched address (the Spec's Watch
// order), or 0 for unwatched addresses.
func (o *Outcome) Mem(sp *Spec) func(int64) int64 {
	return func(addr int64) int64 {
		for i, a := range sp.Watch {
			if a == addr {
				return o.Values[i]
			}
		}
		return 0
	}
}

// choiceRec records one choice made past the prefix.
type choiceRec struct {
	nAlts  int  // domain size
	branch bool // alternatives should be scheduled
}

// controller is the ChoiceSource driving one run.
type controller struct {
	x       *explorer
	prefix  []int
	picks   []int
	recs    []choiceRec
	replay  bool // pure witness replay: no dedup, no recording
	stopped bool // hit a visited state; stop scheduling alternatives

	combineSlept uint64 // per-core sleep set for ChoiceSBCombine, one bit per core

	lastCycle int64
	ordinal   int
}

// choose resolves one choice from its domain.  ch is the machine choice
// being resolved, or nil for a virtual alignment choice (made before the
// machine starts, so there is no state to dedup against).  The machine
// is fingerprinted only where the result is consulted: past the replayed
// prefix, before any dedup hit, and outside witness replay.
func (c *controller) choose(domain []int64, ch *sim.Choice) int64 {
	pos := len(c.picks)
	multi := len(domain) > 1
	ordinal := 0
	if ch != nil && multi {
		ordinal = c.nextOrdinal()
	}
	idx := 0
	if pos < len(c.prefix) {
		idx = c.prefix[pos]
		if idx >= len(domain) {
			// A prefix recorded against a different tree shape; the
			// explorer never does this, but fail closed.
			idx = len(domain) - 1
		}
	}
	branch := false
	if !c.replay && pos >= len(c.prefix) && multi && !c.stopped {
		if ch != nil {
			if c.x.covered(c.stateFP(*ch, ordinal), c.combineSlept) {
				c.stopped = true
			} else {
				branch = true
			}
		} else {
			branch = true
		}
	}
	c.picks = append(c.picks, idx)
	if !c.replay {
		c.recs = append(c.recs, choiceRec{nAlts: len(domain), branch: branch})
	}
	return domain[idx]
}

// nextOrdinal numbers the multi-valued machine choices within the
// current cycle, whether or not their state is fingerprinted.
func (c *controller) nextOrdinal() int {
	if now := c.x.m.Now(); now != c.lastCycle {
		c.lastCycle, c.ordinal = now, 0
	}
	c.ordinal++
	return c.ordinal
}

// stateFP combines the machine fingerprint with the choice descriptor
// and the per-cycle choice ordinal (two choice points within one cycle
// can otherwise present identical machine state).
func (c *controller) stateFP(ch sim.Choice, ordinal int) uint64 {
	h := c.x.m.Fingerprint()
	for _, v := range [...]uint64{
		uint64(ch.Kind), uint64(int64(ch.Core)), uint64(int64(ch.Dest)),
		uint64(ch.Addr), uint64(ch.Lo), uint64(ch.Hi), uint64(ordinal),
	} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return h
}

func (c *controller) shared(addr int64) bool {
	for _, a := range c.x.sp.Shared {
		if a == addr {
			return true
		}
	}
	return false
}

// BoolChoice implements sim.ChoiceSource.
func (c *controller) BoolChoice(ch sim.Choice) bool {
	var domain []int64
	switch ch.Kind {
	case sim.ChoiceSBCombine:
		if c.shared(ch.Addr) && c.combineSlept&(1<<ch.Core) == 0 {
			domain = boolDomain
		} else {
			domain = falseDomain
		}
	case sim.ChoicePropTail:
		// Folded into the ChoicePropDelay domain (delay extremality).
		domain = falseDomain
	default:
		// Issue and load jitter: pinned off under delay extremality.
		domain = falseDomain
	}
	v := c.choose(domain, &ch) != 0
	if ch.Kind == sim.ChoiceSBCombine && len(domain) > 1 && !v {
		// Declined: sleep this core's combine for the rest of the run.
		c.combineSlept |= 1 << ch.Core
	}
	return v
}

var (
	falseDomain = []int64{0}
	boolDomain  = []int64{0, 1}
)

// IntChoice implements sim.ChoiceSource.
func (c *controller) IntChoice(ch sim.Choice) int64 {
	var domain []int64
	switch ch.Kind {
	case sim.ChoiceStoreDrain, sim.ChoiceSBStick:
		if c.shared(ch.Addr) && ch.Hi > ch.Lo {
			domain = []int64{ch.Lo, ch.Hi}
		} else {
			domain = []int64{ch.Lo}
		}
	case sim.ChoicePropDelay:
		if c.shared(ch.Addr) && ch.Hi > ch.Lo {
			domain = []int64{ch.Lo, ch.Hi}
			if c.x.sp.Prof.Lat.PropTail > 0 {
				// The heavy tail, folded in as a third extreme point.
				domain = append(domain, ch.Hi+400)
			}
		} else {
			domain = []int64{ch.Lo}
		}
	default:
		// Load-jitter magnitude and tail extras are unreachable with
		// their gating booleans pinned off; fail safe to the minimum.
		domain = []int64{ch.Lo}
	}
	return c.choose(domain, &ch)
}

// memWords sizes every harness machine's memory, and maxCyclesPerRun
// bounds one explored run; a run still going past it is an error.
const (
	memWords        = 4096
	maxCyclesPerRun = 1_000_000
)

// Harness runs a Spec's threads on one machine.  It is the one place a
// litmus program meets the simulator: exploring starts every run with a
// controlling ChoiceSource, and sampling (internal/litmus) with the
// machine's own seeded RNGs and alignments it draws itself.  Each
// thread's program is built at most once per (thread, stagger).
type Harness struct {
	sp    Spec
	m     *sim.Machine
	b     *arch.Builder // reset for every program built
	progs map[[2]int64]arch.Program
}

// NewHarness fills sp's defaults and builds its machine.
func NewHarness(sp Spec) (*Harness, error) {
	if sp.Threads < 1 {
		return nil, fmt.Errorf("explore: Spec.Threads must be positive")
	}
	if sp.Build == nil {
		return nil, fmt.Errorf("explore: Spec.Build is required")
	}
	if len(sp.Stagger) == 0 {
		sp.Stagger = DefaultStagger(sp.Threads)
	}
	m, err := sim.New(sp.Prof, sim.Config{Cores: sp.Threads, MemWords: memWords, Seed: 1})
	if err != nil {
		return nil, err
	}
	return &Harness{sp: sp, m: m, b: arch.NewBuilder(), progs: map[[2]int64]arch.Program{}}, nil
}

// Machine returns the harness's machine: the caller runs it after Start
// and reads the final state from it.
func (h *Harness) Machine() *sim.Machine { return h.m }

// Start prepares one run: it resets the machine to seed with src
// installed (nil leaves every choice to the machine's seeded RNGs),
// warms the Shared lines and loads each thread th's program at
// alignment staggers[th].
func (h *Harness) Start(seed int64, src sim.ChoiceSource, staggers []int64) error {
	h.m.Reset(seed)
	h.m.SetChoiceSource(src)
	for _, a := range h.sp.Shared {
		h.m.PreTouch(a)
	}
	for th, st := range staggers {
		key := [2]int64{int64(th), st}
		prog, ok := h.progs[key]
		if !ok {
			h.b.Reset()
			h.sp.Build(h.b, th, st)
			var err error
			if prog, err = h.b.Build(); err != nil {
				return fmt.Errorf("thread %d: %w", th, err)
			}
			h.progs[key] = prog
		}
		if err := h.m.LoadProgram(th, prog); err != nil {
			return fmt.Errorf("thread %d: %w", th, err)
		}
	}
	return nil
}

type explorer struct {
	*Harness
	// visited maps each explored state fingerprint to the combine sleep
	// masks it was explored under (see covered).
	visited map[uint64][]uint64
	// picks, recs and staggers keep the capacity of the last run's
	// buffers, so runs do not regrow them from empty.
	picks    []int
	recs     []choiceRec
	staggers []int64
}

// Explore enumerates the reachable outcomes of sp.
func Explore(sp Spec) (*Report, error) {
	x, err := newExplorer(&sp)
	if err != nil {
		return nil, err
	}
	maxRuns := sp.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 400_000
	}

	outcomes := map[string]*Outcome{}
	rep := &Report{}
	truncated := false
	stack := [][]int{nil} // prefixes to explore; nil = the root run
	for len(stack) > 0 {
		if rep.Runs >= maxRuns {
			truncated = true
			break
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		ctl, err := x.execute(prefix, nil)
		if err != nil {
			return nil, fmt.Errorf("explore: run %d (prefix %v): %w", rep.Runs, prefix, err)
		}
		rep.Runs++

		key, vals := x.outcomeKey()
		if _, ok := outcomes[key]; !ok {
			outcomes[key] = &Outcome{
				Values: vals,
				Key:    key,
				Picks:  append([]int(nil), ctl.picks...),
			}
			if sp.StopOutcome != nil && sp.StopOutcome(vals) {
				break
			}
		}

		// Schedule the untried alternatives of every branchable
		// post-prefix choice.
		for i := len(prefix); i < len(ctl.picks); i++ {
			rec := ctl.recs[i]
			if !rec.branch {
				continue
			}
			for alt := 1; alt < rec.nAlts; alt++ {
				next := make([]int, i+1)
				copy(next, ctl.picks[:i])
				next[i] = alt
				stack = append(stack, next)
			}
		}
	}

	rep.Complete = !truncated && len(stack) == 0
	rep.States = len(x.visited)
	for _, o := range outcomes {
		rep.Outcomes = append(rep.Outcomes, *o)
	}
	sort.Slice(rep.Outcomes, func(i, j int) bool { return rep.Outcomes[i].Key < rep.Outcomes[j].Key })
	return rep, nil
}

// Replay re-runs one pick sequence (an Outcome's witness) with a tracer
// installed, so callers can render the interleaving that produced an
// outcome.
func Replay(sp Spec, picks []int, tracer sim.Tracer) error {
	x, err := newExplorer(&sp)
	if err != nil {
		return err
	}
	x.m.SetTracer(tracer)
	defer x.m.SetTracer(nil)
	_, err = x.execute(picks, &replayMode)
	return err
}

var replayMode = struct{}{}

func newExplorer(sp *Spec) (*explorer, error) {
	if len(sp.Watch) == 0 {
		return nil, fmt.Errorf("explore: Spec.Watch is empty")
	}
	h, err := NewHarness(*sp)
	if err != nil {
		return nil, err
	}
	return &explorer{Harness: h, visited: map[uint64][]uint64{}}, nil
}

// covered reports whether state fp, reached with combine sleep mask
// slept, was already explored under some mask r ⊆ slept, whose subtree
// then contains this visitor's (see "State dedup" in the package
// comment), and records this visit if not.  Masks are kept, never
// intersected.
func (x *explorer) covered(fp, slept uint64) bool {
	masks := x.visited[fp]
	for _, r := range masks {
		if r&^slept == 0 {
			return true
		}
	}
	x.visited[fp] = append(masks, slept)
	return false
}

// execute performs one machine run under the given pick prefix.  The
// returned controller's picks and recs reuse the explorer's buffers:
// they are valid until the next execute.
func (x *explorer) execute(prefix []int, replay *struct{}) (*controller, error) {
	sp := &x.sp
	ctl := &controller{
		x:         x,
		prefix:    prefix,
		picks:     x.picks[:0],
		recs:      x.recs[:0],
		replay:    replay != nil,
		lastCycle: -1,
	}
	defer func() { x.picks, x.recs = ctl.picks, ctl.recs }()

	// Alignment: one virtual choice per thread, made before the machine
	// starts (no machine state to dedup against).
	staggers := x.staggers[:0]
	for th := 0; th < sp.Threads; th++ {
		staggers = append(staggers, ctl.choose(sp.Stagger, nil))
	}
	x.staggers = staggers

	// The machine's rngs are never consulted while a source is
	// installed, so the seed is immaterial; keep it fixed.
	if err := x.Start(1, ctl, staggers); err != nil {
		return nil, err
	}
	res, err := x.m.Run(maxCyclesPerRun)
	if err != nil {
		return nil, err
	}
	if !res.AllHalted {
		return nil, fmt.Errorf("did not halt within %d cycles", maxCyclesPerRun)
	}
	return ctl, nil
}

// outcomeKey reads the watched addresses after a run.
func (x *explorer) outcomeKey() (string, []int64) {
	vals := make([]int64, len(x.sp.Watch))
	key := make([]byte, 0, 2*len(vals))
	for i, a := range x.sp.Watch {
		vals[i] = x.m.ReadMem(a)
		if i > 0 {
			key = append(key, '/')
		}
		key = strconv.AppendInt(key, vals[i], 10)
	}
	return string(key), vals
}
