package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// TestDelayStreamUnchanged pins that swapping the runner's inline
// xorshift for the shared sim.XorShift64 left the alignment-delay
// stream — and therefore every sampled litmus outcome — unchanged: the
// legacy recurrence is reimplemented here verbatim and compared draw by
// draw against what Run now uses.
func TestDelayStreamUnchanged(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 12345} {
		for _, maxDelay := range []int64{60, 120, 300} {
			rnd := sim.NewXorShift64(uint64(seed)*0x9e3779b9 + 1)
			legacy := struct{ s uint64 }{uint64(seed)*0x9e3779b9 + 1}
			for i := 0; i < 1000; i++ {
				legacy.s ^= legacy.s << 13
				legacy.s ^= legacy.s >> 7
				legacy.s ^= legacy.s << 17
				want := int64(legacy.s % uint64(maxDelay))
				if got := rnd.Intn(maxDelay); got != want {
					t.Fatalf("seed %d maxDelay %d draw %d: got %d want %d", seed, maxDelay, i, got, want)
				}
			}
		}
	}
}

func outcomeKey(watch []int64, mem func(int64) int64) string {
	var b strings.Builder
	for i, a := range watch {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%d", mem(a))
	}
	return b.String()
}

// TestExhaustiveSupersetOfSampling is the empirical soundness check for
// the explorer's reduced choice domains: every outcome the sampling
// runner observes must be contained in the exhaustively enumerated set.
// A miss here means a reduction (delay extremality, pinned jitter,
// sticky combine, the stagger domain) cut a reachable behaviour.
func TestExhaustiveSupersetOfSampling(t *testing.T) {
	if raceEnabled {
		t.Skip("full enumeration under the race detector exceeds CI budgets; the no-race conformance step runs it")
	}
	for _, prof := range []*arch.Profile{arch.ARMv8(), arch.POWER7()} {
		for _, tst := range Suite(prof.Name) {
			tst := tst
			t.Run(prof.Name+"/"+tst.Name, func(t *testing.T) {
				if testing.Short() && len(tst.Threads) > 2 {
					t.Skip("short mode: 2-thread shapes only")
				}
				if tst.StressProp && len(tst.Threads) > 3 {
					// The stressed 4-thread shapes have three-valued
					// propagation domains per (store, destination); their
					// full tree exceeds any practical run budget.  The
					// early-stopping conformance check still covers them.
					t.Skip("stressed 4-thread shape: full enumeration impractical")
				}
				watch := WatchedAddrs(tst)
				sampled := map[string]bool{}
				r := &Runner{
					Prof:    prof,
					Trials:  400,
					Seed:    2,
					Observe: func(mem func(int64) int64) { sampled[outcomeKey(watch, mem)] = true },
				}
				if testing.Short() {
					r.Trials = 120
				}
				if _, err := r.Run(tst); err != nil {
					t.Fatal(err)
				}
				rep, err := r.Exhaustive(tst, false)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Complete {
					t.Fatalf("exploration truncated after %d runs", rep.Runs)
				}
				enumerated := map[string]bool{}
				for _, o := range rep.Outcomes {
					enumerated[o.Key] = true
				}
				for k := range sampled {
					if !enumerated[k] {
						t.Errorf("sampled outcome %s not in enumerated set (%d outcomes)", k, len(rep.Outcomes))
					}
				}
				t.Logf("sampled %d ⊆ enumerated %d outcomes (%d runs, %d states)",
					len(sampled), len(rep.Outcomes), rep.Runs, rep.States)
			})
		}
	}
}

// TestExhaustiveConformance runs the exhaustive verdict over the whole
// catalogue: Forbidden expectations become proofs of absence over the
// reduced domains, Allowed expectations constructive witnesses.  Each
// verdict's explorer work and result are pinned against
// conformanceGolden, so a change to the explorer or the simulator that
// moves any run count, state count, outcome or witness shows up here.
func TestExhaustiveConformance(t *testing.T) {
	if raceEnabled {
		t.Skip("full enumeration under the race detector exceeds CI budgets; the no-race conformance step runs it")
	}
	for _, prof := range []*arch.Profile{arch.ARMv8(), arch.POWER7()} {
		for _, tst := range Suite(prof.Name) {
			tst := tst
			t.Run(prof.Name+"/"+tst.Name, func(t *testing.T) {
				if testing.Short() && len(tst.Threads) > 2 {
					t.Skip("short mode: 2-thread shapes only")
				}
				rep, err := r(prof).CheckExhaustive(tst)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s: %d outcomes, %d runs, %d states, complete=%v",
					tst.Expect[prof.Name], len(rep.Outcomes), rep.Runs, rep.States, rep.Complete)
				got := goldenOf(rep)
				if want, ok := conformanceGolden[prof.Name+"/"+tst.Name]; !ok || got != want {
					t.Errorf("explorer result moved from its golden %+v; now\n\t%q: %s,", want, prof.Name+"/"+tst.Name, got)
				}
			})
		}
	}
}

// exploreGolden pins one exhaustive verdict: explorer runs and states,
// the outcome keys (sorted, space-separated) and a digest of every
// outcome's witness picks.
type exploreGolden struct {
	runs, states int
	keys, picks  string
}

func (g exploreGolden) String() string {
	return fmt.Sprintf("{%d, %d, %q, %q}", g.runs, g.states, g.keys, g.picks)
}

func goldenOf(rep *ExhaustiveReport) exploreGolden {
	keys := make([]string, len(rep.Outcomes))
	h := sha256.New()
	for i, o := range rep.Outcomes {
		keys[i] = o.Key
		fmt.Fprintf(h, "%s:%v;", o.Key, o.Picks)
	}
	return exploreGolden{
		runs:   rep.Runs,
		states: rep.States,
		keys:   strings.Join(keys, " "),
		picks:  hex.EncodeToString(h.Sum(nil))[:16],
	}
}

// conformanceGolden holds the CheckExhaustive result of every catalogue
// shape on both profiles.
var conformanceGolden = map[string]exploreGolden{
	"armv8/MP":                  {39, 30, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "3a12a66ae179f226"},
	"armv8/MP+ishst+po":         {39, 30, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "3a12a66ae179f226"},
	"armv8/MP+po+ishld":         {137, 93, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "573263f10a0d9bc2"},
	"armv8/MP+ishst+ishld":      {700, 504, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "6ac2fea9adeb0b9d"},
	"armv8/MP+ish+ish":          {660, 464, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "7d17c7477891125c"},
	"armv8/MP+ishst+addr":       {687, 491, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "1d4390a97bc3e4ca"},
	"armv8/MP+ishst+ctl":        {39, 30, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "f27ad56f5cf77b04"},
	"armv8/MP+ishst+ctlisb":     {751, 555, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "95141947db4a5420"},
	"armv8/MP+rel+acq":          {697, 501, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "0044545291eb940a"},
	"armv8/SB":                  {1, 2, "1/1/0/0/0/0/0/0/0/0/0", "107914bf7d1c20b2"},
	"armv8/SB+ish+ish":          {697, 501, "1/1/0/0/0/0/0/1/0/0/0 1/1/0/1/0/0/0/0/0/0/0 1/1/0/1/0/0/0/1/0/0/0", "9c11e514b0f9bf79"},
	"armv8/SB+rel+acq":          {681, 485, "1/1/0/0/0/0/0/1/0/0/0 1/1/0/1/0/0/0/0/0/0/0 1/1/0/1/0/0/0/1/0/0/0", "54463270c753a78a"},
	"armv8/CoRR":                {353, 157, "1/0/0/0/0/0/0/0/0/0/0 1/0/0/0/0/0/0/0/1/0/0 1/0/0/0/0/0/0/1/1/0/0", "da8fc0c05e5d6077"},
	"armv8/CoWW":                {56, 42, "2/0/0/0/0/0/0", "18690e052264aa19"},
	"armv8/LB":                  {1800, 1604, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/1/0/0/0/0/0/0/0", "c9c9043f4f9fd462"},
	"armv8/WRC+data+addr":       {1169, 826, "1/1/0/0/0/0/0/0/0/0/0/1/1/0/0", "8069a5ccc531f600"},
	"armv8/IRIW+addr+addr":      {976, 720, "1/1/0/0/0/0/0/0/0/0/0/1/0/0/0/1/1/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/1/0/0", "b08adf83df3a4ac9"},
	"armv8/IRIW+ishld+ishld":    {832, 576, "1/1/0/0/0/0/0/0/0/0/0/1/0/0/0/1/1/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/1/0/0", "15667990e7ccf17f"},
	"armv8/R":                   {6, 6, "1/1/0/0/0/0/0/0/0/0/0 1/2/0/0/0/0/0/0/0/0/0 1/2/0/0/0/0/0/1/0/0/0", "83af7e3f0e001517"},
	"armv8/R+ish+ish":           {1231, 1035, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 1/2/0/0/0/0/0/1/0/0/0", "6313687f3cd5e403"},
	"armv8/S":                   {393, 351, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 2/1/0/0/0/0/0/0/0/0/0 2/1/0/0/0/0/0/1/0/0/0", "4813df013de214f9"},
	"armv8/S+ish+po":            {1901, 1705, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 2/1/0/0/0/0/0/0/0/0/0", "ac153e8d6f73cce3"},
	"armv8/2+2W":                {200, 188, "1/1/0/0/0/0/0/0/0/0/0 1/2/0/0/0/0/0/0/0/0/0 2/1/0/0/0/0/0/0/0/0/0 2/2/0/0/0/0/0/0/0/0/0", "b09f29c187d09160"},
	"armv8/2+2W+ishst+ishst":    {2001, 1805, "1/2/0/0/0/0/0/0/0/0/0 2/1/0/0/0/0/0/0/0/0/0 2/2/0/0/0/0/0/0/0/0/0", "95054c8303ee0371"},
	"power7/MP":                 {45, 44, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "c9bf8d92d1e54312"},
	"power7/MP+lwsync+po":       {49, 48, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "af93f4ebab4917d7"},
	"power7/MP+po+lwsync":       {67, 64, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "e11ac6b747d26b0d"},
	"power7/MP+lwsync+lwsync":   {2375, 2179, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "83bcabe489e5c0df"},
	"power7/MP+sync+sync":       {1823, 1627, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "477d9d6deba295e2"},
	"power7/MP+lwsync+addr":     {2043, 1847, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "f01ab8067849e3c4"},
	"power7/MP+lwsync+ctl":      {47, 46, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/1/1/0/0", "ecc34114758d4155"},
	"power7/MP+lwsync+ctlisync": {2678, 2482, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/0/1/0/0 1/1/0/0/0/0/0/1/1/0/0", "2dc3a2b70234089a"},
	"power7/SB":                 {1, 4, "1/1/0/0/0/0/0/0/0/0/0", "582a6617adff459e"},
	"power7/SB+sync+sync":       {3048, 2852, "1/1/0/0/0/0/0/1/0/0/0 1/1/0/1/0/0/0/0/0/0/0 1/1/0/1/0/0/0/1/0/0/0", "751df1b4d8a98f83"},
	"power7/SB+lwsync+lwsync":   {4, 5, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/1/0/0/0/0/0/0/0 1/1/0/1/0/0/0/1/0/0/0", "4898ab0040d2ceab"},
	"power7/CoRR":               {593, 397, "1/0/0/0/0/0/0/0/0/0/0 1/0/0/0/0/0/0/0/1/0/0 1/0/0/0/0/0/0/1/1/0/0", "0e6208a185bd9e2d"},
	"power7/CoWW":               {56, 42, "2/0/0/0/0/0/0", "18690e052264aa19"},
	"power7/LB":                 {6742, 6546, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 1/1/0/1/0/0/0/0/0/0/0", "c582769ff8bfa846"},
	"power7/WRC+data+addr":      {19, 15, "1/1/0/0/0/0/0/0/0/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0", "6d329ae37c9c9e39"},
	"power7/WRC+sync+addr":      {13447, 13104, "1/1/0/0/0/0/0/0/0/0/0/1/1/0/0", "6f6552ab35d3c0f1"},
	"power7/IRIW+addr+addr":     {31, 22, "1/1/0/0/0/0/0/0/0/0/0/1/0/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/0/0/0/1/1/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/1/0/0", "e9713493b033adeb"},
	"power7/IRIW+sync+sync":     {47494, 47238, "1/1/0/0/0/0/0/0/0/0/0/1/0/0/0/1/1/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/1/0/0", "775aac63963cd5cc"},
	"power7/IRIW+lwsync+lwsync": {31, 22, "1/1/0/0/0/0/0/0/0/0/0/1/0/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/0/0/0/1/1/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/0/0/0 1/1/0/0/0/0/0/0/0/0/0/1/1/0/0/1/1/0/0", "1572b71124d70206"},
	"power7/R":                  {1, 6, "1/2/0/0/0/0/0/0/0/0/0", "d362275a30654b2e"},
	"power7/R+sync+sync":        {8538, 8342, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 1/2/0/0/0/0/0/1/0/0/0", "f857c2cb3807b93a"},
	"power7/S":                  {4573, 4192, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 2/1/0/0/0/0/0/0/0/0/0 2/1/0/0/0/0/0/1/0/0/0", "9f7492697c9c4be5"},
	"power7/S+lwsync+po":        {13466, 13270, "1/1/0/0/0/0/0/0/0/0/0 1/1/0/0/0/0/0/1/0/0/0 2/1/0/0/0/0/0/0/0/0/0", "cb68882e489200ef"},
	"power7/2+2W":               {2583, 2315, "1/1/0/0/0/0/0/0/0/0/0 1/2/0/0/0/0/0/0/0/0/0 2/1/0/0/0/0/0/0/0/0/0 2/2/0/0/0/0/0/0/0/0/0", "d780185ae4c4d19b"},
}

func r(prof *arch.Profile) *Runner { return &Runner{Prof: prof} }

// TestExhaustiveWitness checks that an Allowed verdict carries a
// replayable witness whose rendered trace shows both cores retiring.
func TestExhaustiveWitness(t *testing.T) {
	prof := arch.ARMv8()
	var sb *Test
	for _, tst := range Suite(prof.Name) {
		if tst.Name == "SB" {
			sb = tst
		}
	}
	if sb == nil {
		t.Fatal("SB not in catalogue")
	}
	rep, err := r(prof).Exhaustive(sb, true)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Violation()
	if v == nil {
		t.Fatal("no relaxed outcome found for SB on armv8")
	}
	var buf strings.Builder
	if err := rep.WriteWitness(v, &buf); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	if !strings.Contains(trace, "c0") || !strings.Contains(trace, "c1") {
		t.Errorf("witness trace missing per-core events:\n%s", trace)
	}
	if !strings.Contains(trace, "satisfied@") {
		t.Errorf("witness trace has no load events:\n%s", trace)
	}
}
