package optimize

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/platform/c11"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
)

// The soundness gate: every candidate strategy must keep the forbidden
// outcome of each gate shape unreachable under exhaustive exploration of
// the reduced choice tree.  The shapes are built THROUGH the platform
// generators, so the exact instruction sequences the candidate would emit
// into real code are what gets model-checked — a candidate that drops a
// required barrier is rejected with a replayed witness trace showing the
// interleaving that breaks it.

// GateOutcome is the gate verdict for one shape.
type GateOutcome struct {
	Shape string `json:"shape"`
	// Sound reports the forbidden outcome was unreachable and the
	// exploration was complete.
	Sound bool `json:"sound"`
	// Runs and States count explorer work.
	Runs   int `json:"runs"`
	States int `json:"states"`
	// Outcome is the violating final-state key when unsound.
	Outcome string `json:"outcome,omitempty"`
	// Witness is the replayed per-core retirement interleaving that
	// produced the violation.
	Witness string `json:"witness,omitempty"`
}

// maxWitnessBytes caps the recorded witness trace.
const maxWitnessBytes = 64 << 10

// recordResult stores r into thread t's i-th observation slot.
func recordResult(b *arch.Builder, r arch.Reg, t, i int) {
	b.Store(r, litmus.Base, litmus.ResultAddr(t, i))
}

// buildGateTest constructs the named shape through the candidate's
// platform generator.
func buildGateTest(platform string, cand Candidate, shape string, prof *arch.Profile) (*litmus.Test, error) {
	switch platform {
	case "jvm":
		j := jvm.New(jvm.Config{Prof: prof, Strategy: *cand.JVM})
		switch shape {
		case "volatile-sb":
			// Dekker: volatile store mine; volatile load other.
			th := func(t int, mine, other int64) litmus.Thread {
				return litmus.Thread{
					Setup: litmus.PrimeLines(litmus.X, litmus.Y),
					Body: func(b *arch.Builder) {
						b.MovImm(2, 1)
						j.VolatileStore(b, 2, litmus.Base, mine)
						j.VolatileLoad(b, 3, litmus.Base, other)
						recordResult(b, 3, t, 0)
					},
				}
			}
			return &litmus.Test{
				Name:    "volatile-sb",
				Threads: []litmus.Thread{th(0, litmus.X, litmus.Y), th(1, litmus.Y, litmus.X)},
				Relaxed: litmus.SBRelaxed,
			}, nil
		case "volatile-mp":
			// Plain data store, volatile flag; reader loads the
			// volatile flag then the plain data.
			return &litmus.Test{
				Name: "volatile-mp",
				Threads: []litmus.Thread{
					{Body: func(b *arch.Builder) {
						b.MovImm(2, 1)
						b.Store(2, litmus.Base, litmus.X)
						j.VolatileStore(b, 2, litmus.Base, litmus.Y)
					}},
					{
						Setup: litmus.PrimeLines(litmus.X),
						Body: func(b *arch.Builder) {
							j.VolatileLoad(b, 2, litmus.Base, litmus.Y)
							b.Load(3, litmus.Base, litmus.X)
							recordResult(b, 2, 1, 0)
							recordResult(b, 3, 1, 1)
						},
					},
				},
				Relaxed: litmus.MPRelaxed,
				Hit:     litmus.MPHit,
			}, nil
		}
	case "kernel":
		k := kernel.New(kernel.Config{Prof: prof, Strategy: *cand.Kernel})
		switch shape {
		case "rcu-mp":
			// rcu_assign_pointer publication against an
			// rcu_dereference with a true address dependency — the
			// usage pattern read_barrier_depends exists for.
			return &litmus.Test{
				Name: "rcu-mp",
				Threads: []litmus.Thread{
					{Body: func(b *arch.Builder) {
						b.MovImm(2, 1)
						b.Store(2, litmus.Base, litmus.X)
						k.RCUAssign(b, 2, litmus.Base, litmus.Y)
					}},
					{
						Setup: litmus.PrimeLines(litmus.X),
						Body: func(b *arch.Builder) {
							k.RCUDereference(b, 2, litmus.Base, litmus.Y)
							// Follow the "pointer": an
							// address-dependent load of X.
							b.Eor(4, 2, 2)
							b.Add(5, litmus.Base, 4)
							b.Load(3, 5, litmus.X)
							recordResult(b, 2, 1, 0)
							recordResult(b, 3, 1, 1)
						},
					},
				},
				Relaxed: litmus.MPRelaxed,
				Hit:     litmus.MPHit,
			}, nil
		case "acqrel-mp":
			return &litmus.Test{
				Name: "acqrel-mp",
				Threads: []litmus.Thread{
					{Body: func(b *arch.Builder) {
						b.MovImm(2, 1)
						k.WriteOnce(b, 2, litmus.Base, litmus.X)
						k.StoreRelease(b, 2, litmus.Base, litmus.Y)
					}},
					{
						Setup: litmus.PrimeLines(litmus.X),
						Body: func(b *arch.Builder) {
							k.LoadAcquire(b, 2, litmus.Base, litmus.Y)
							k.ReadOnce(b, 3, litmus.Base, litmus.X)
							recordResult(b, 2, 1, 0)
							recordResult(b, 3, 1, 1)
						},
					},
				},
				Relaxed: litmus.MPRelaxed,
				Hit:     litmus.MPHit,
			}, nil
		}
	case "c11":
		c := c11.New(c11.Config{Prof: prof, Strategy: *cand.C11})
		switch shape {
		case "sc-sb":
			th := func(t int, mine, other int64) litmus.Thread {
				return litmus.Thread{
					Setup: litmus.PrimeLines(litmus.X, litmus.Y),
					Body: func(b *arch.Builder) {
						b.MovImm(2, 1)
						c.Store(b, c11.SeqCst, 2, litmus.Base, mine)
						c.Load(b, c11.SeqCst, 3, litmus.Base, other)
						recordResult(b, 3, t, 0)
					},
				}
			}
			return &litmus.Test{
				Name:    "sc-sb",
				Threads: []litmus.Thread{th(0, litmus.X, litmus.Y), th(1, litmus.Y, litmus.X)},
				Relaxed: litmus.SBRelaxed,
			}, nil
		case "acqrel-mp":
			return &litmus.Test{
				Name: "acqrel-mp",
				Threads: []litmus.Thread{
					{Body: func(b *arch.Builder) {
						b.MovImm(2, 1)
						c.Store(b, c11.Relaxed, 2, litmus.Base, litmus.X)
						c.Store(b, c11.Release, 2, litmus.Base, litmus.Y)
					}},
					{
						Setup: litmus.PrimeLines(litmus.X),
						Body: func(b *arch.Builder) {
							c.Load(b, c11.Acquire, 2, litmus.Base, litmus.Y)
							c.Load(b, c11.Relaxed, 3, litmus.Base, litmus.X)
							recordResult(b, 2, 1, 0)
							recordResult(b, 3, 1, 1)
						},
					},
				},
				Relaxed: litmus.MPRelaxed,
				Hit:     litmus.MPHit,
			}, nil
		}
	}
	return nil, fmt.Errorf("optimize: no gate shape %q for platform %s", shape, platform)
}

// RunGate runs every configured gate shape for the candidate and returns
// the per-shape verdicts.  An exploration that neither finds a violation
// nor completes within the budget is an error: the gate must never report
// "sound" on an inconclusive search.
func RunGate(sp Spec, cand Candidate) ([]GateOutcome, error) {
	prof, err := sp.Profile()
	if err != nil {
		return nil, err
	}
	out := make([]GateOutcome, 0, len(sp.Gate.Shapes))
	for _, shape := range sp.Gate.Shapes {
		t, err := buildGateTest(sp.Platform, cand, shape, prof)
		if err != nil {
			return nil, err
		}
		r := &litmus.Runner{Prof: prof, Seed: sp.Seed, MaxDelay: sp.Gate.MaxDelay}
		rep, err := r.Exhaustive(t, true)
		if err != nil {
			return nil, fmt.Errorf("optimize: gate %s/%s: %w", cand.Name, shape, err)
		}
		g := GateOutcome{Shape: shape, Runs: rep.Runs, States: rep.States}
		if v := rep.Violation(); v != nil {
			g.Outcome = v.Key
			var buf strings.Builder
			if err := rep.WriteWitness(v, &buf); err != nil {
				return nil, fmt.Errorf("optimize: gate %s/%s witness: %w", cand.Name, shape, err)
			}
			w := buf.String()
			if len(w) > maxWitnessBytes {
				w = w[:maxWitnessBytes] + "\n... (witness truncated)\n"
			}
			g.Witness = w
		} else if !rep.Complete {
			return nil, fmt.Errorf("optimize: gate %s/%s: exploration incomplete within budget", cand.Name, shape)
		} else {
			g.Sound = true
		}
		out = append(out, g)
	}
	return out, nil
}
