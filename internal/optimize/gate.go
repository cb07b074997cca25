package optimize

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/workload"
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

// An emitter emits one access through the platform generator g: a store
// of register r to base+off, or a load of base+off into r.
type emitter[G any] func(g G, b *arch.Builder, r, base arch.Reg, off int64)

// A gateShape is one soundness shape; build constructs its litmus test
// through the generator the candidate's environment configures.
type gateShape struct {
	name  string
	build func(workload.Env) *litmus.Test
}

// sb is the store-buffering (Dekker) template: each thread stores 1 to its
// own location, then loads the other's.
func sb[G any](name string, gen func(workload.Env) G, store, load emitter[G]) gateShape {
	return gateShape{name, func(e workload.Env) *litmus.Test {
		g := gen(e)
		th := func(t int, mine, other int64) litmus.Thread {
			return litmus.Thread{
				Setup: litmus.PrimeLines(litmus.X, litmus.Y),
				Body: func(b *arch.Builder) {
					b.MovImm(2, 1)
					store(g, b, 2, litmus.Base, mine)
					load(g, b, 3, litmus.Base, other)
					recordResult(b, 3, t, 0)
				},
			}
		}
		return &litmus.Test{
			Name:    name,
			Threads: []litmus.Thread{th(0, litmus.X, litmus.Y), th(1, litmus.Y, litmus.X)},
			Relaxed: litmus.SBRelaxed,
		}
	}}
}

// mp is the message-passing template: the writer stores 1 to the data X,
// then to the flag Y; the reader loads the flag into register 2, then the
// data into register 3.
func mp[G any](name string, gen func(workload.Env) G, dataStore, flagStore, flagLoad, dataLoad emitter[G]) gateShape {
	return gateShape{name, func(e workload.Env) *litmus.Test {
		g := gen(e)
		return &litmus.Test{
			Name: name,
			Threads: []litmus.Thread{
				{Body: func(b *arch.Builder) {
					b.MovImm(2, 1)
					dataStore(g, b, 2, litmus.Base, litmus.X)
					flagStore(g, b, 2, litmus.Base, litmus.Y)
				}},
				{
					Setup: litmus.PrimeLines(litmus.X),
					Body: func(b *arch.Builder) {
						flagLoad(g, b, 2, litmus.Base, litmus.Y)
						dataLoad(g, b, 3, litmus.Base, litmus.X)
						recordResult(b, 2, 1, 0)
						recordResult(b, 3, 1, 1)
					},
				},
			},
			Relaxed: litmus.MPRelaxed,
			Hit:     litmus.MPHit,
		}
	}}
}

// plainStore and plainLoad emit ordinary accesses.
func plainStore[G any](_ G, b *arch.Builder, r, base arch.Reg, off int64) { b.Store(r, base, off) }

func plainLoad[G any](_ G, b *arch.Builder, r, base arch.Reg, off int64) { b.Load(r, base, off) }

// addrDepLoad is mp's data load through the "pointer" the flag load left
// in register 2: its address, built in scratch registers 4 and 5,
// depends on that value.
func addrDepLoad[G any](_ G, b *arch.Builder, r, base arch.Reg, off int64) {
	b.Eor(4, 2, 2)
	b.Add(5, base, 4)
	b.Load(r, 5, off)
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
	p := platforms[sp.Platform]
	env := cand.env(prof)
	out := make([]GateOutcome, 0, len(sp.Gate.Shapes))
	for _, shape := range sp.Gate.Shapes {
		gs, ok := p.gate(shape)
		if !ok {
			return nil, fmt.Errorf("optimize: no gate shape %q for platform %s", shape, sp.Platform)
		}
		r := &litmus.Runner{Prof: prof, Seed: sp.Seed, MaxDelay: sp.Gate.MaxDelay}
		rep, err := r.Exhaustive(gs.build(env), true)
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

// gate returns the platform's gate shape of the given name.
func (p platform) gate(name string) (gateShape, bool) {
	for _, g := range p.gates {
		if g.name == name {
			return g, true
		}
	}
	return gateShape{}, false
}
