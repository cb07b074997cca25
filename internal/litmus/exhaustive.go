package litmus

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/arch"
	"repro/internal/explore"
	"repro/internal/sim"
)

// Exhaustive verdicts: where Run samples randomized alignments and
// counts how often the relaxed outcome shows up, Exhaustive hands the
// same program shapes to internal/explore and enumerates the reachable
// final-memory outcomes outright.  A Forbidden expectation then becomes
// a proof of absence over the explorer's reduced choice domains (see
// the package comment of internal/explore for what "reduced" concedes),
// and an Allowed expectation a constructive witness: a replayable trace
// of one run that exhibits the relaxed outcome.

// ExhaustiveOutcome is one reachable final-memory state of a litmus
// test, classified against the test's predicates.
type ExhaustiveOutcome struct {
	// Key is the canonical "v0/v1/..." rendering of Values.
	Key string
	// Values are the final values of the watched addresses.
	Values []int64
	// Hit reports whether the outcome satisfies the test's precondition.
	Hit bool
	// Relaxed reports whether the outcome exhibits the relaxed behaviour.
	Relaxed bool
	// Picks replays the witness run for this outcome (WriteWitness).
	Picks []int
}

// ExhaustiveReport is the result of exhaustively exploring one test.
type ExhaustiveReport struct {
	// Watch lists the watched addresses, parallel to each outcome's
	// Values.
	Watch []int64
	// Outcomes are the reachable outcomes, sorted by Key.
	Outcomes []ExhaustiveOutcome
	// Runs and States count explorer work (runs performed, distinct
	// deduplicated choice states).
	Runs, States int
	// Complete reports whether the reduced choice tree was exhausted.
	// A Forbidden verdict requires it; a reachability witness does not.
	Complete bool

	spec explore.Spec
}

// Violation returns the first outcome that satisfies the precondition
// and exhibits the relaxed behaviour, or nil.
func (rep *ExhaustiveReport) Violation() *ExhaustiveOutcome {
	for i := range rep.Outcomes {
		if o := &rep.Outcomes[i]; o.Hit && o.Relaxed {
			return o
		}
	}
	return nil
}

// WriteWitness replays o's witness run with a text tracer, rendering
// the per-core retirement interleaving that produced the outcome.
func (rep *ExhaustiveReport) WriteWitness(o *ExhaustiveOutcome, w io.Writer) error {
	return explore.Replay(rep.spec, o.Picks, sim.TraceWriter(w))
}

// WatchedAddrs returns the addresses whose final values classify t's
// outcomes: the shared locations, every initialised address, and each
// thread's first four result slots (the catalogue records at most two).
func WatchedAddrs(t *Test) []int64 {
	addrs := make([]int64, 0, len(sharedLines)+len(t.Init)+4*len(t.Threads))
	addrs = append(addrs, sharedLines...)
	for a := range t.Init {
		addrs = append(addrs, a)
	}
	for th := range t.Threads {
		for i := 0; i < 4; i++ {
			addrs = append(addrs, ResultAddr(th, i))
		}
	}
	slices.Sort(addrs)
	return slices.Compact(addrs)
}

// staggerLadder is the geometric menu of alignment offsets (delay-loop
// iterations) from which per-test domains are drawn.
var staggerLadder = []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384}

// staggerDomain builds the per-thread alignment domain for exhaustive
// exploration: the ladder capped at the test's effective sampling bound
// (so every separation the sampling runner can draw is bracketed — the
// R shape needs offsets past 48 to put one whole thread after the
// other), downsampled to a per-thread-count budget because the domain
// is raised to the power of the thread count.
func staggerDomain(threads int, maxDelay int64) []int64 {
	dom := make([]int64, 0, len(staggerLadder)+1)
	for _, v := range staggerLadder {
		if v < maxDelay {
			dom = append(dom, v)
		}
	}
	dom = append(dom, maxDelay)
	budget := 14
	switch {
	case threads == 3:
		budget = 7
	case threads >= 4:
		budget = 4
	}
	if len(dom) <= budget {
		return dom
	}
	out := make([]int64, budget)
	for i := range out {
		out[i] = dom[i*(len(dom)-1)/(budget-1)]
	}
	return out
}

// sharedLines are the catalogue's shared locations, and the only
// addresses whose timing choices the explorer branches.  Litmus runs race
// on warmed memory: the lines are already resident in the outer
// hierarchy, so priming loads and first observations cost cache-to-cache
// latency, not DRAM.
var sharedLines = []int64{X, Y, Z}

// spec compiles a litmus test into the explorer's Spec, the one program
// construction (setup, alignment delay loop, body, halt) that Run
// samples, Exhaustive explores and WriteWitness replays.  It also returns
// the test's alignment-delay bound: Run draws each thread's delay below
// it, and the explorer's stagger domain brackets it.
func (r *Runner) spec(t *Test) (explore.Spec, int64) {
	prof := r.Prof
	if t.StressProp {
		stressed := *prof
		stressed.Lat.PropTail = 300
		stressed.Lat.PropMax = prof.Lat.PropMax + 32
		prof = &stressed
	}
	maxDelay := r.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 120
	}
	if t.MaxDelay > 0 {
		maxDelay = t.MaxDelay
	}
	return explore.Spec{
		Prof:    prof,
		Threads: len(t.Threads),
		Build: func(b *arch.Builder, thread int, stagger int64) {
			th := t.Threads[thread]
			if th.Setup != nil {
				th.Setup(b)
			}
			if stagger > 0 {
				b.MovImm(delayReg, stagger)
				b.Label("litmus_delay")
				b.SubsImm(delayReg, delayReg, 1)
				b.Bne("litmus_delay")
			}
			th.Body(b)
			b.Halt()
		},
		Init:        t.Init,
		PreTouch:    sharedLines,
		Interesting: sharedLines,
		Watch:       WatchedAddrs(t),
		Stagger:     staggerDomain(len(t.Threads), maxDelay),
		MemWords:    4096,
	}, maxDelay
}

// Exhaustive enumerates the reachable outcomes of t.  With
// stopOnRelaxed set, exploration halts at the first outcome that
// satisfies the precondition and exhibits the relaxed behaviour (a
// reachability check); otherwise the reduced tree is exhausted.
func (r *Runner) Exhaustive(t *Test, stopOnRelaxed bool) (*ExhaustiveReport, error) {
	sp, _ := r.spec(t)
	classify := func(o *explore.Outcome) (hit, relaxed bool) {
		mem := o.Mem(&sp)
		return t.Hit == nil || t.Hit(mem), t.Relaxed(mem)
	}
	if stopOnRelaxed {
		sp.StopOutcome = func(vals []int64) bool {
			hit, relaxed := classify(&explore.Outcome{Values: vals})
			return hit && relaxed
		}
	}
	erep, err := explore.Explore(sp)
	if err != nil {
		return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	rep := &ExhaustiveReport{
		Watch:    sp.Watch,
		Runs:     erep.Runs,
		States:   erep.States,
		Complete: erep.Complete,
		spec:     sp,
	}
	for i := range erep.Outcomes {
		o := &erep.Outcomes[i]
		hit, relaxed := classify(o)
		rep.Outcomes = append(rep.Outcomes, ExhaustiveOutcome{
			Key:     o.Key,
			Values:  o.Values,
			Hit:     hit,
			Relaxed: relaxed,
			Picks:   o.Picks,
		})
	}
	return rep, nil
}

// CheckExhaustive verifies t's expectation for the runner's profile by
// exhaustive enumeration: Forbidden requires a complete exploration
// with no relaxed outcome, Allowed requires a reachable relaxed outcome
// (found by early-stopping search), AllowedUnseen checks nothing.
func (r *Runner) CheckExhaustive(t *Test) (*ExhaustiveReport, error) {
	exp, ok := t.Expect[r.Prof.Name]
	if !ok {
		return nil, fmt.Errorf("litmus %s: no expectation for profile %s", t.Name, r.Prof.Name)
	}
	switch exp {
	case Forbidden:
		rep, err := r.Exhaustive(t, false)
		if err != nil {
			return rep, err
		}
		if v := rep.Violation(); v != nil {
			return rep, fmt.Errorf("litmus %s on %s: forbidden outcome %s reachable (witness replayable)",
				t.Name, r.Prof.Name, v.Key)
		}
		if !rep.Complete {
			return rep, fmt.Errorf("litmus %s on %s: exploration truncated after %d runs; absence not proven",
				t.Name, r.Prof.Name, rep.Runs)
		}
		return rep, nil
	case Allowed:
		rep, err := r.Exhaustive(t, true)
		if err != nil {
			return rep, err
		}
		if rep.Violation() == nil {
			return rep, fmt.Errorf("litmus %s on %s: relaxed outcome allowed but unreachable (%d outcomes in %d runs)",
				t.Name, r.Prof.Name, len(rep.Outcomes), rep.Runs)
		}
		return rep, nil
	default: // AllowedUnseen
		rep, err := r.Exhaustive(t, true)
		if err != nil {
			return rep, err
		}
		return rep, nil
	}
}
