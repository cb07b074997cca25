package workload

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// TestMachineCacheKeysByProfileValue pins the machine cache's key: equal
// profiles at different pointers share one machine, so a long-lived cache
// (an engine worker's) stays bounded by the distinct configurations it
// sees rather than growing with every freshly built profile.  The cached
// machine runs on the cache's own copy of the profile, so changing the
// caller's profile afterwards neither alters that machine nor aliases a
// different configuration onto it.
func TestMachineCacheKeysByProfileValue(t *testing.T) {
	mc := NewMachineCache()
	cfg := sim.Config{Cores: 2, MemWords: 1024, Seed: 1}
	first := arch.ARMv8()
	a, err := mc.acquire(first, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cfg.Seed = int64(2 + i)
		b, err := mc.acquire(arch.ARMv8(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b != a {
			t.Fatalf("acquire %d: an equal profile at a new pointer built a second machine", i)
		}
	}
	if n := len(mc.machines); n != 1 {
		t.Fatalf("cache holds %d machines for one configuration, want 1", n)
	}

	drain := first.Lat.StoreDrain
	first.Lat.StoreDrain += 7
	if got := a.Prof().Lat.StoreDrain; got != drain {
		t.Fatalf("cached machine's profile followed the caller's change: StoreDrain %d, want %d", got, drain)
	}
	c, err := mc.acquire(first, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || len(mc.machines) != 2 {
		t.Fatalf("a changed profile reused the old machine (%d cached)", len(mc.machines))
	}
}
