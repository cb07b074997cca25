package perfbench

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/optimize"
)

// exploreAllocsTolerance bounds the explorer rows' allocs/op growth at
// 0.1%: far above the few allocations identical runs differ by,
// far below the thousands one extra allocation per machine run adds.
const exploreAllocsTolerance = 0.001

// exploreShape measures one full exhaustive exploration (no early stop)
// of a catalogue litmus shape: the explorer layer under every litmus
// check.  Each op explores a fixed tree, so runs/s and states/s price
// the explorer independently of the tree's size.
func exploreShape(prof *arch.Profile, shape string) func(b *testing.B) {
	return func(b *testing.B) {
		var tst *litmus.Test
		for _, t := range litmus.Suite(prof.Name) {
			if t.Name == shape {
				tst = t
			}
		}
		if tst == nil {
			b.Fatalf("no catalogue shape %s for %s", shape, prof.Name)
		}
		r := &litmus.Runner{Prof: prof}
		explore := func() (runs, states int) {
			rep, err := r.Exhaustive(tst, false)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Complete {
				b.Fatalf("exploration truncated after %d runs", rep.Runs)
			}
			return rep.Runs, rep.States
		}
		timeExplore(b, explore)
	}
}

// exploreGate measures an optimizer soundness gate with its defaults:
// every default candidate of the platform through every gate shape, as
// the gate cells of one optimize job explore them.
func exploreGate(platform string, prof *arch.Profile) func(b *testing.B) {
	return func(b *testing.B) {
		sp := optimize.Spec{Platform: platform, Arch: prof.Name}.WithDefaults()
		cands, err := sp.Candidates()
		if err != nil {
			b.Fatal(err)
		}
		explore := func() (runs, states int) {
			for _, c := range cands {
				gate, err := optimize.RunGate(sp, c)
				if err != nil {
					b.Fatal(err)
				}
				for _, g := range gate {
					runs += g.Runs
					states += g.States
				}
			}
			return runs, states
		}
		timeExplore(b, explore)
	}
}

// timeExplore times b.N calls of explore and reports runs/s and
// states/s.  One untimed call first takes the process's one-time
// allocations (lazily built tables, pooled formatters) out of the
// count, so allocs/op does not depend on b.N and can be gated exactly.
func timeExplore(b *testing.B, explore func() (runs, states int)) {
	explore()
	runs, states := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, s := explore()
		runs += r
		states += s
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(runs)/secs, "runs/s")
	b.ReportMetric(float64(states)/secs, "states/s")
}
