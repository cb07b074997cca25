package litmus_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmus/gen"
)

// sampledGolden is the sha256 of every trial's watched final memory and
// every test's outcome counts over the corpus sampledDigest runs.  It
// pins the sampling runner's bytes: trial seeds, the alignment-delay
// stream, program construction, machine set-up, the cycle bound and the
// order of Observe and Hit.  Any change to the simulator's semantics or
// to how Run drives it moves this digest.
const sampledGolden = "3759acb41137a3c06eafcb9d4194ed78a7472898089e31fa2423fb5d119f076a"

// sampledDigest samples the catalogue on both profiles at seeds 1 and 2
// with 120 trials, and a fixed generated batch (gen seed 1, 300 tests, 8
// trials) on both profiles, writing every observation into h.
func sampledDigest(t *testing.T, h hash.Hash) {
	t.Helper()
	recipes, err := gen.Generate(gen.Config{Seed: 1, Count: 300})
	if err != nil {
		t.Fatal(err)
	}
	generated := gen.BuildAll(recipes)
	for _, prof := range []*arch.Profile{arch.ARMv8(), arch.POWER7()} {
		for _, seed := range []int64{1, 2} {
			sampleInto(t, h, &litmus.Runner{Prof: prof, Trials: 120, Seed: seed}, litmus.Suite(prof.Name))
		}
		sampleInto(t, h, &litmus.Runner{Prof: prof, Trials: 8, Seed: 1}, generated)
	}
}

func sampleInto(t *testing.T, h hash.Hash, r *litmus.Runner, tests []*litmus.Test) {
	t.Helper()
	for _, tst := range tests {
		watch := litmus.WatchedAddrs(tst)
		r.Observe = func(mem func(int64) int64) {
			for _, a := range watch {
				fmt.Fprintf(h, "%d,", mem(a))
			}
			h.Write([]byte{'\n'})
		}
		out, err := r.Run(tst)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s seed %d: %d/%d/%d\n", r.Prof.Name, tst.Name, r.Seed, out.Trials, out.Hits, out.Relaxed)
	}
}

// TestSampledOutcomesGolden pins the sampled litmus outcomes.  The
// exhaustive goldens cover the explorer; this is the sampling runner's
// counterpart, and the reason TestExhaustiveSupersetOfSampling still
// compares the explorer against the same sampler it always did.
func TestSampledOutcomesGolden(t *testing.T) {
	h := sha256.New()
	sampledDigest(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != sampledGolden {
		t.Errorf("sampled outcomes digest %s, want %s", got, sampledGolden)
	}
}
