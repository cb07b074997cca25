package explore

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

const (
	addrX = int64(0)
	addrY = int64(64)
	res0  = int64(1024)
	res1  = int64(1088)
)

// sbSpec hand-builds the store-buffering shape: each thread stores 1 to
// its location, then loads the other's into a private result slot.
// Unfenced, both loads may see 0 (the weak outcome); with a full fence
// between the store and the load, 0/0 must be unreachable.
func sbSpec(prof *arch.Profile, fence arch.BarrierKind) Spec {
	return Spec{
		Prof:    prof,
		Threads: 2,
		Build: func(b *arch.Builder, thread int, stagger int64) {
			myAddr, otherAddr, res := addrX, addrY, res0
			if thread == 1 {
				myAddr, otherAddr, res = addrY, addrX, res1
			}
			if stagger > 0 {
				b.MovImm(27, stagger)
				b.Label("delay")
				b.SubsImm(27, 27, 1)
				b.Bne("delay")
			}
			b.MovImm(2, 1)
			b.Store(2, 1, myAddr)
			if fence != arch.BarrierNone {
				b.Fence(fence)
			}
			b.Load(3, 1, otherAddr)
			b.Store(3, 1, res)
			b.Halt()
		},
		Shared: []int64{addrX, addrY},
		Watch:  []int64{res0, res1},
	}
}

func keys(rep *Report) []string {
	out := make([]string, len(rep.Outcomes))
	for i, o := range rep.Outcomes {
		out[i] = o.Key
	}
	return out
}

func hasKey(rep *Report, key string) bool {
	for _, o := range rep.Outcomes {
		if o.Key == key {
			return true
		}
	}
	return false
}

// TestStoreBufferingOutcomes checks the explorer against the one fact
// every weak model agrees on: unfenced SB admits the 0/0 outcome and a
// full fence forbids it — on both profiles.
func TestStoreBufferingOutcomes(t *testing.T) {
	for name, prof := range arch.Profiles() {
		fence := arch.DMBIsh
		if prof.Flavor == arch.NonMCA {
			fence = arch.HwSync
		}
		t.Run(name+"/unfenced", func(t *testing.T) {
			rep, err := Explore(sbSpec(prof, arch.BarrierNone))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete {
				t.Fatalf("exploration truncated at %d runs", rep.Runs)
			}
			if !hasKey(rep, "0/0") {
				t.Errorf("weak SB outcome 0/0 not found; outcomes: %v", keys(rep))
			}
			if !hasKey(rep, "0/1") || !hasKey(rep, "1/0") {
				t.Errorf("one-sided SB outcomes missing; outcomes: %v", keys(rep))
			}
			// 1/1 needs both loads to satisfy after both opposing stores
			// arrive; POWER's propagation floor (commit+drain+prop) exceeds
			// the load-satisfaction window, so only MCA reaches it.
			if prof.Flavor == arch.MCA && !hasKey(rep, "1/1") {
				t.Errorf("interleaved outcome 1/1 not found; outcomes: %v", keys(rep))
			}
			t.Logf("%s unfenced SB: %d outcomes %v in %d runs, %d states",
				name, len(rep.Outcomes), keys(rep), rep.Runs, rep.States)
		})
		t.Run(name+"/fenced", func(t *testing.T) {
			rep, err := Explore(sbSpec(prof, fence))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete {
				t.Fatalf("exploration truncated at %d runs", rep.Runs)
			}
			if hasKey(rep, "0/0") {
				t.Errorf("fenced SB reached forbidden outcome 0/0; outcomes: %v", keys(rep))
			}
			if len(rep.Outcomes) == 0 {
				t.Error("no outcomes at all")
			}
		})
	}
}

// TestExploreDeterminism pins that exploration is a pure function of the
// Spec: two passes produce identical reports, outcome keys, and witness
// picks.
func TestExploreDeterminism(t *testing.T) {
	prof := arch.ARMv8()
	a, err := Explore(sbSpec(prof, arch.BarrierNone))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(sbSpec(prof, arch.BarrierNone))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("exploration not deterministic:\n  a: runs=%d states=%d keys=%v\n  b: runs=%d states=%d keys=%v",
			a.Runs, a.States, keys(a), b.Runs, b.States, keys(b))
	}
}

// TestReplayWitness re-runs each outcome's recorded picks and checks the
// replayed machine reproduces exactly that outcome's watched values,
// with trace events delivered.
func TestReplayWitness(t *testing.T) {
	prof := arch.ARMv8()
	sp := sbSpec(prof, arch.BarrierNone)
	rep, err := Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes {
		perCore := map[int]int{}
		err := Replay(sp, o.Picks, func(e sim.TraceEvent) {
			perCore[e.Core]++
		})
		if err != nil {
			t.Fatalf("replay %q: %v", o.Key, err)
		}
		for core := 0; core < 2; core++ {
			if perCore[core] == 0 {
				t.Errorf("replay %q: no trace events from core %d", o.Key, core)
			}
		}
	}
	// Replaying a witness must reproduce its outcome: verify through a
	// fresh explorer bounded to a single run seeded with the picks.
	for _, o := range rep.Outcomes {
		got, err := replayOutcome(sp, o.Picks)
		if err != nil {
			t.Fatalf("replay %q: %v", o.Key, err)
		}
		if got != o.Key {
			t.Errorf("witness for %q replayed to %q", o.Key, got)
		}
	}
}

// replayOutcome runs one witness and reads back the watched addresses.
func replayOutcome(sp Spec, picks []int) (string, error) {
	x, err := newExplorer(&sp)
	if err != nil {
		return "", err
	}
	if _, err := x.execute(picks, &replayMode); err != nil {
		return "", err
	}
	key, _ := x.outcomeKey()
	return key, nil
}

// TestMaxRunsTruncation pins the incomplete-search contract: a budget of
// one run yields Complete == false but still reports that run's outcome.
func TestMaxRunsTruncation(t *testing.T) {
	sp := sbSpec(arch.ARMv8(), arch.BarrierNone)
	sp.MaxRuns = 1
	rep, err := Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Error("truncated exploration reported Complete")
	}
	if rep.Runs != 1 || len(rep.Outcomes) != 1 {
		t.Errorf("got %d runs, %d outcomes; want 1 and 1", rep.Runs, len(rep.Outcomes))
	}
}

// TestSpecValidation covers the constructor's error paths.
func TestSpecValidation(t *testing.T) {
	prof := arch.ARMv8()
	build := func(b *arch.Builder, _ int, _ int64) { b.Halt() }
	cases := []struct {
		name string
		sp   Spec
	}{
		{"no threads", Spec{Prof: prof, Build: build, Watch: []int64{0}}},
		{"no build", Spec{Prof: prof, Threads: 1, Watch: []int64{0}}},
		{"no watch", Spec{Prof: prof, Threads: 1, Build: build}},
	}
	for _, tc := range cases {
		if _, err := Explore(tc.sp); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestMessagePassingAddrDep checks a second shape end to end: MP with a
// fenced writer and an address-dependent reader forbids stale data on
// both architectures, while the unfenced form admits it.
func TestMessagePassingAddrDep(t *testing.T) {
	for name, prof := range arch.Profiles() {
		wfence := arch.DMBIsh
		if prof.Flavor == arch.NonMCA {
			wfence = arch.LwSync
		}
		mp := func(fenced bool) Spec {
			return Spec{
				Prof:    prof,
				Threads: 2,
				Build: func(b *arch.Builder, thread int, stagger int64) {
					if stagger > 0 {
						b.MovImm(27, stagger)
						b.Label("delay")
						b.SubsImm(27, 27, 1)
						b.Bne("delay")
					}
					if thread == 0 {
						b.MovImm(2, 1)
						b.Store(2, 1, addrX) // data
						if fenced {
							b.Fence(wfence)
						}
						b.Store(2, 1, addrY) // flag
					} else {
						b.Load(2, 1, addrY) // flag
						// Address dependency: data address computed from
						// the flag value (x ^ x == 0 folded into the base).
						b.Eor(4, 2, 2)
						b.Add(5, 1, 4)
						b.Load(3, 5, addrX)
						b.Store(2, 1, res0)
						b.Store(3, 1, res1)
					}
					b.Halt()
				},
				Shared: []int64{addrX, addrY},
				Watch:  []int64{res0, res1},
			}
		}
		t.Run(name, func(t *testing.T) {
			weak, err := Explore(mp(false))
			if err != nil {
				t.Fatal(err)
			}
			strong, err := Explore(mp(true))
			if err != nil {
				t.Fatal(err)
			}
			if !strong.Complete {
				t.Fatalf("fenced exploration truncated at %d runs", strong.Runs)
			}
			if hasKey(strong, "1/0") {
				t.Errorf("fenced MP reached forbidden 1/0; outcomes: %v", keys(strong))
			}
			if !hasKey(strong, "1/1") {
				t.Errorf("fenced MP never saw 1/1; outcomes: %v", keys(strong))
			}
			t.Logf("%s MP: unfenced %v (%d runs), fenced %v (%d runs)",
				name, keys(weak), weak.Runs, keys(strong), strong.Runs)
		})
	}
}

// TestDedupRespectsCombineSleepSet pins the dedup rule for the combine
// sleep set at the controller: a state first explored under sleep mask
// r stops a later visitor under mask m only when r ⊆ m.  A visitor with
// fewer cores asleep has a larger choice domain and must branch, and
// recorded masks are never narrowed to their intersection.
func TestDedupRespectsCombineSleepSet(t *testing.T) {
	const core0, core1 = 1 << 0, 1 << 1
	// Every visit resolves the same combine choice on a fresh machine,
	// so all of them present one fingerprint.
	ch := sim.Choice{Kind: sim.ChoiceSBCombine, Core: 0, Dest: -1, Addr: addrX}
	cases := []struct {
		name     string
		recorded []uint64 // masks of the earlier visits, in order
		visitor  uint64
		stopped  bool
	}{
		{"same mask", []uint64{core0}, core0, true},
		{"superset of a recorded mask", []uint64{0}, core0 | core1, true},
		{"subset of the recorded mask", []uint64{core0}, 0, false},
		{"disjoint from the recorded mask", []uint64{core0}, core1, false},
		{"covered by one of several masks", []uint64{core0, core1}, core1, true},
		{"no narrowing to the intersection", []uint64{core0, core1}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := sbSpec(arch.ARMv8(), arch.BarrierNone)
			x, err := newExplorer(&sp)
			if err != nil {
				t.Fatal(err)
			}
			visit := func(slept uint64) *controller {
				ctl := &controller{x: x, combineSlept: slept, lastCycle: -1}
				ctl.choose(boolDomain, &ch)
				return ctl
			}
			for _, r := range tc.recorded {
				if ctl := visit(r); ctl.stopped {
					t.Fatalf("recording visit under mask %b was stopped", r)
				}
			}
			ctl := visit(tc.visitor)
			if ctl.stopped != tc.stopped {
				t.Errorf("visitor under mask %b after visits %b: stopped=%v, want %v",
					tc.visitor, tc.recorded, ctl.stopped, tc.stopped)
			}
			if branch := ctl.recs[0].branch; branch == tc.stopped {
				t.Errorf("visitor scheduled alternatives=%v, want %v", branch, !tc.stopped)
			}
			if len(x.visited) != 1 {
				t.Errorf("%d distinct states recorded, want 1", len(x.visited))
			}
		})
	}
}

func BenchmarkExploreSB(b *testing.B) {
	sp := sbSpec(arch.ARMv8(), arch.BarrierNone)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Explore(sp)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Complete {
			b.Fatal("truncated")
		}
	}
}

var _ = fmt.Sprintf // keep fmt if assertions change
