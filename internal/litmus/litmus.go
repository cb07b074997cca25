// Package litmus defines classic weak-memory litmus tests and a runner that
// executes them on the simulator across many randomized alignments.  The
// suite serves two purposes:
//
//   - conformance: it validates that the simulated machine exhibits exactly
//     the relaxed behaviours the paper's target architectures exhibit (and
//     forbids the ones they forbid), per fencing variant;
//
//   - it is the substrate for the ISA-level microbenchmarks of §4.4 of the
//     paper (timing loops over barrier instructions).
package litmus

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/explore"
	"repro/internal/sim"
)

// Base is the register threads use as their memory base pointer; the runner
// sets it to zero.
const Base arch.Reg = 1

// Shared-location addresses used by the catalogue.  They sit on distinct
// cache lines for both profiles.
const (
	X int64 = 0
	Y int64 = 64
	Z int64 = 192
)

// Result-slot addresses: thread t's i-th observation is stored at
// ResultBase + 64*t + 8*i (distinct lines per thread).
const ResultBase int64 = 1024

// ResultAddr returns the address of thread t's i-th observation slot.
func ResultAddr(t, i int) int64 { return ResultBase + 64*int64(t) + 8*int64(i) }

// Thread is one hardware thread of a litmus test.
type Thread struct {
	// Setup emits priming code (cache warming) that runs before the
	// randomized alignment delay.
	Setup func(b *arch.Builder)
	// Body emits the test body proper.
	Body func(b *arch.Builder)
}

// Expectation states whether the relaxed outcome is architecturally
// observable on a machine.
type Expectation uint8

const (
	// Forbidden means the relaxed outcome must never be observed.
	Forbidden Expectation = iota
	// Allowed means the relaxed outcome is permitted and, for the shapes
	// in the catalogue, expected to be observable with enough trials.
	Allowed
	// AllowedUnseen means the relaxed outcome is architecturally allowed
	// but not exhibited by this simulator (nor by most real
	// implementations), e.g. LB on ARM.  The runner checks nothing.
	AllowedUnseen
)

// String returns the expectation name.
func (e Expectation) String() string {
	switch e {
	case Forbidden:
		return "forbidden"
	case Allowed:
		return "allowed"
	default:
		return "allowed-unseen"
	}
}

// Test is a litmus shape plus its per-profile expectations.
type Test struct {
	Name    string
	Init    map[int64]int64
	Threads []Thread
	// Relaxed decides, from the final memory image, whether this run
	// exhibited the relaxed outcome.  Hit decides whether the run
	// satisfied the shape's precondition (e.g. the flag was observed);
	// nil means every run counts.
	Relaxed func(mem func(int64) int64) bool
	Hit     func(mem func(int64) int64) bool
	// Expect maps profile name ("armv8", "power7") to the expectation.
	Expect map[string]Expectation
	// Trials overrides the runner's trial count (rare Allowed shapes
	// need more randomized alignments to show up).
	Trials int
	// MaxDelay overrides the runner's alignment-delay bound (shapes
	// needing tight races use a small bound).
	MaxDelay int64
	// StressProp runs the test with an elevated propagation-tail
	// probability, the litmus-campaign equivalent of running the shape
	// under memory-system stress to provoke rare outcomes.
	StressProp bool
}

// Outcome summarises running one Test many times.
type Outcome struct {
	Trials  int
	Hits    int // runs satisfying the precondition
	Relaxed int // runs exhibiting the relaxed outcome
}

// Runner executes litmus tests on a given profile.
type Runner struct {
	Prof   *arch.Profile
	Trials int   // number of randomized runs (default 400)
	Seed   int64 // base seed (default 1)
	// MaxDelay bounds the random alignment delay in loop iterations.
	MaxDelay int64
	// Observe, when non-nil, is called after every trial with the final
	// memory image (before Hit filtering).  The exhaustive-superset
	// conformance check records sampled outcomes through it.
	Observe func(mem func(int64) int64)
}

// delayReg is scratch for the alignment delay loop.
const delayReg arch.Reg = 27

// Run samples the test: each trial draws one alignment delay per thread
// and runs the explorer's harness (see Runner.spec) on the machine's own
// seeded RNGs, and the outcome counts how often the precondition and the
// relaxed behaviour showed up.
func (r *Runner) Run(t *Test) (Outcome, error) {
	trials := r.Trials
	if trials <= 0 {
		trials = 400
	}
	if t.Trials > 0 {
		// Scale a per-test override proportionally when the runner asks
		// for a reduced count (e.g. under -short).
		trials = t.Trials * trials / 400
		if trials < 1 {
			trials = 1
		}
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	var out Outcome
	sp, maxDelay := r.spec(t)
	h, err := explore.NewHarness(sp)
	if err != nil {
		return out, err
	}
	m := h.Machine()
	mem := m.ReadMem
	rnd := sim.NewXorShift64(uint64(seed)*0x9e3779b9 + 1)
	delays := make([]int64, len(t.Threads))
	for trial := 0; trial < trials; trial++ {
		for i := range delays {
			delays[i] = rnd.Intn(maxDelay)
		}
		// Start's error names the thread: "litmus <name> thread <i>: ...".
		if err := h.Start(seed+int64(trial)*7919, nil, delays); err != nil {
			return out, fmt.Errorf("litmus %s %w", t.Name, err)
		}
		res, err := m.Run(4_000_000)
		if err != nil {
			return out, fmt.Errorf("litmus %s trial %d: %w", t.Name, trial, err)
		}
		if !res.AllHalted {
			return out, fmt.Errorf("litmus %s trial %d: did not halt", t.Name, trial)
		}
		out.Trials++
		if r.Observe != nil {
			r.Observe(mem)
		}
		if t.Hit != nil && !t.Hit(mem) {
			continue
		}
		out.Hits++
		if t.Relaxed(mem) {
			out.Relaxed++
		}
	}
	return out, nil
}

// Check runs the test and verifies the outcome against the expectation for
// the runner's profile.  It returns the outcome and a nil error when the
// behaviour conforms.
func (r *Runner) Check(t *Test) (Outcome, error) {
	exp, ok := t.Expect[r.Prof.Name]
	if !ok {
		return Outcome{}, fmt.Errorf("litmus %s: no expectation for profile %s", t.Name, r.Prof.Name)
	}
	out, err := r.Run(t)
	if err != nil {
		return out, err
	}
	switch exp {
	case Forbidden:
		if out.Relaxed > 0 {
			return out, fmt.Errorf("litmus %s on %s: relaxed outcome observed %d/%d times but is forbidden",
				t.Name, r.Prof.Name, out.Relaxed, out.Hits)
		}
	case Allowed:
		if out.Relaxed == 0 {
			return out, fmt.Errorf("litmus %s on %s: relaxed outcome allowed but never observed (%d hits)",
				t.Name, r.Prof.Name, out.Hits)
		}
	case AllowedUnseen:
		// Nothing to check.
	}
	return out, nil
}
