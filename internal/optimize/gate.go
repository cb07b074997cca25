package optimize

import (
	"fmt"
	"strings"

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

// A gateShape is one soundness shape; build constructs its litmus test,
// litmus.MP or litmus.SB over the access methods of the generator the
// candidate's environment configures.
type gateShape struct {
	name  string
	build func(workload.Env) *litmus.Test
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
