package perfbench

import "testing"

// TestCompare pins the gate: ns/op within the tolerance passes, allocs/op
// is exact unless the current row declares an allocation tolerance, and
// rows missing from the baseline are not gated.
func TestCompare(t *testing.T) {
	base := []Result{
		{Name: "SimCycles/armv8", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "Explore/SB/armv8", NsPerOp: 100, AllocsPerOp: 10_000},
	}
	cases := []struct {
		name string
		cur  Result
		bad  bool
	}{
		{"ns within tolerance", Result{Name: "SimCycles/armv8", NsPerOp: 119}, false},
		{"ns beyond tolerance", Result{Name: "SimCycles/armv8", NsPerOp: 121}, true},
		{"one extra alloc on an exact row", Result{Name: "SimCycles/armv8", NsPerOp: 100, AllocsPerOp: 1}, true},
		{"allocs within the row's tolerance", Result{Name: "Explore/SB/armv8", NsPerOp: 100, AllocsPerOp: 10_009, allocsTolerance: 0.001}, false},
		{"allocs beyond the row's tolerance", Result{Name: "Explore/SB/armv8", NsPerOp: 100, AllocsPerOp: 10_011, allocsTolerance: 0.001}, true},
		{"allocs growth without a tolerance", Result{Name: "Explore/SB/armv8", NsPerOp: 100, AllocsPerOp: 10_001}, true},
		{"row missing from the baseline", Result{Name: "ExploreGate/jvm/armv8", NsPerOp: 1e9, AllocsPerOp: 1e6}, false},
	}
	for _, tc := range cases {
		if got := len(Compare(base, []Result{tc.cur}, 0.20)) > 0; got != tc.bad {
			t.Errorf("%s: violation=%v, want %v", tc.name, got, tc.bad)
		}
	}
}
