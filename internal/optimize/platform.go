package optimize

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/platform/c11"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
	"repro/internal/workload"
)

// A platform is everything the optimizer knows about one platform.
// Adding a platform is one entry in platforms, plus the StrategyEncoding
// field that encodes its strategies in the report.
type platform struct {
	// space is the strategy space as candidates, in enumeration order.
	space []Candidate
	// baseline is the stock strategy and mix the default scoring mix.
	baseline string
	mix      map[string]int
	// ops maps the platform's mix operation names onto Mix fields (the
	// common operations are in mixCommon).
	ops map[string]func(*workload.Mix) *int
	// paths are nop-padded in every measurement; costPaths carry the
	// injected cost in fit cells.
	paths, costPaths []arch.PathID
	// bench is the scoring benchmark's workload platform.
	bench workload.Platform
	// gates are the soundness shapes, in gate order.
	gates []gateShape
}

// platforms is the optimizer's platform table, keyed by Spec.Platform.
var platforms = map[string]platform{
	"jvm": {
		space: func() (out []Candidate) {
			for _, st := range jvm.Enumerate() {
				enc := st.Spec()
				out = append(out, Candidate{st.Name, StrategyEncoding{JVM: &enc},
					func(e workload.Env) workload.Env { e.JVMStrategy = st; return e }})
			}
			return out
		}(),
		baseline: "jdk8-barriers",
		mix: map[string]int{
			"compute": 6, "priv_loads": 4, "priv_stores": 2, "shared_loads": 1,
			"volatile_loads": 4, "volatile_stores": 2, "publishes": 1,
		},
		ops: map[string]func(*workload.Mix) *int{
			"volatile_loads":  func(m *workload.Mix) *int { return &m.VolatileLoads },
			"volatile_stores": func(m *workload.Mix) *int { return &m.VolatileStores },
			"publishes":       func(m *workload.Mix) *int { return &m.Publishes },
			"card_marks":      func(m *workload.Mix) *int { return &m.CardMarks },
			"atomic_adds":     func(m *workload.Mix) *int { return &m.AtomicAdds },
			"lock_pairs":      func(m *workload.Mix) *int { return &m.LockPairs },
			"full_fences":     func(m *workload.Mix) *int { return &m.FullFences },
			"load_fences":     func(m *workload.Mix) *int { return &m.LoadFences },
		},
		paths:     []arch.PathID{jvm.PathAnyBarrier},
		costPaths: []arch.PathID{jvm.PathAnyBarrier},
		bench:     workload.JVMPlatform,
		gates: []gateShape{
			// Dekker: volatile store mine; volatile load other.
			{"volatile-sb", func(e workload.Env) *litmus.Test {
				j := newJVM(e)
				return litmus.SB("volatile-sb", j.VolatileStore, j.VolatileLoad)
			}},
			// Plain data, volatile flag.
			{"volatile-mp", func(e workload.Env) *litmus.Test {
				j := newJVM(e)
				return litmus.MP("volatile-mp", litmus.PlainStore, j.VolatileStore, j.VolatileLoad, litmus.PlainLoad)
			}},
		},
	},
	"kernel": {
		space: func() (out []Candidate) {
			for _, st := range kernel.Enumerate() {
				enc := st.Spec()
				out = append(out, Candidate{st.Name, StrategyEncoding{Kernel: &enc},
					func(e workload.Env) workload.Env { e.KernelStrategy = st; return e }})
			}
			return out
		}(),
		baseline: "base case",
		mix: map[string]int{
			"compute": 6, "priv_loads": 4, "priv_stores": 2, "shared_loads": 1,
			"read_onces": 3, "rcu_derefs": 3, "rcu_assigns": 1, "write_onces": 1,
		},
		ops: map[string]func(*workload.Mix) *int{
			"read_onces":   func(m *workload.Mix) *int { return &m.ReadOnces },
			"write_onces":  func(m *workload.Mix) *int { return &m.WriteOnces },
			"rcu_derefs":   func(m *workload.Mix) *int { return &m.RCUDerefs },
			"rcu_assigns":  func(m *workload.Mix) *int { return &m.RCUAssigns },
			"spin_pairs":   func(m *workload.Mix) *int { return &m.SpinPairs },
			"atomic_incs":  func(m *workload.Mix) *int { return &m.AtomicIncs },
			"syscalls":     func(m *workload.Mix) *int { return &m.Syscalls },
			"seq_reads":    func(m *workload.Mix) *int { return &m.SeqReads },
			"seq_writes":   func(m *workload.Mix) *int { return &m.SeqWrites },
			"mbs":          func(m *workload.Mix) *int { return &m.MBs },
			"mandatory_mb": func(m *workload.Mix) *int { return &m.MandatoryMB },
		},
		paths:     kernel.Paths,
		costPaths: []arch.PathID{kernel.PathReadBarrierDepends},
		bench:     workload.KernelPlatform,
		gates: []gateShape{
			// rcu_assign_pointer publication against an rcu_dereference
			// with a true address dependency: the usage pattern
			// read_barrier_depends exists for.
			{"rcu-mp", func(e workload.Env) *litmus.Test {
				k := newKernel(e)
				return litmus.MP("rcu-mp", litmus.PlainStore, k.RCUAssign, k.RCUDereference, litmus.AddrDepLoad)
			}},
			{"acqrel-mp", func(e workload.Env) *litmus.Test {
				k := newKernel(e)
				return litmus.MP("acqrel-mp", k.WriteOnce, k.StoreRelease, k.LoadAcquire, k.ReadOnce)
			}},
		},
	},
	"c11": {
		space: func() (out []Candidate) {
			for _, st := range c11.Enumerate() {
				enc := st.Spec()
				out = append(out, Candidate{st.Name, StrategyEncoding{C11: &enc},
					func(e workload.Env) workload.Env { e.C11Strategy = st; return e }})
			}
			return out
		}(),
		baseline: "barriers",
		mix: map[string]int{
			"compute": 6, "priv_loads": 4, "priv_stores": 2, "shared_loads": 1,
			"sc_loads": 3, "sc_stores": 2, "rel_acq_pairs": 1,
		},
		ops: map[string]func(*workload.Mix) *int{
			"sc_loads":      func(m *workload.Mix) *int { return &m.SCLoads },
			"sc_stores":     func(m *workload.Mix) *int { return &m.SCStores },
			"rel_acq_pairs": func(m *workload.Mix) *int { return &m.RelAcqPairs },
			"relaxed_ops":   func(m *workload.Mix) *int { return &m.RelaxedOps },
			"fetch_adds":    func(m *workload.Mix) *int { return &m.FetchAdds },
		},
		paths:     c11.Paths,
		costPaths: []arch.PathID{c11.PathSeqCst},
		bench:     workload.C11Platform,
		gates: []gateShape{
			{"sc-sb", func(e workload.Env) *litmus.Test {
				c := newC11(e)
				return litmus.SB("sc-sb", c11Store(c, c11.SeqCst), c11Load(c, c11.SeqCst))
			}},
			{"acqrel-mp", func(e workload.Env) *litmus.Test {
				c := newC11(e)
				return litmus.MP("acqrel-mp", c11Store(c, c11.Relaxed), c11Store(c, c11.Release),
					c11Load(c, c11.Acquire), c11Load(c, c11.Relaxed))
			}},
		},
	},
}

// lookupPlatform returns the spec's platform.
func (sp Spec) lookupPlatform() (platform, error) {
	p, ok := platforms[sp.Platform]
	if !ok {
		return p, fmt.Errorf("optimize: unknown platform %q (want one of %v)", sp.Platform, slices.Sorted(maps.Keys(platforms)))
	}
	return p, nil
}

// The gate's code generators, configured with the environment's strategy
// and no cost injection.
func newJVM(e workload.Env) *jvm.JVM {
	return jvm.New(jvm.Config{Prof: e.Prof, Strategy: e.JVMStrategy})
}

func newKernel(e workload.Env) *kernel.Kernel {
	return kernel.New(kernel.Config{Prof: e.Prof, Strategy: e.KernelStrategy})
}

func newC11(e workload.Env) *c11.C11 {
	return c11.New(c11.Config{Prof: e.Prof, Strategy: e.C11Strategy})
}

// c11Store and c11Load are c's C11 atomic accesses of memory order o.
func c11Store(c *c11.C11, o c11.Order) litmus.Access {
	return func(b *arch.Builder, r, base arch.Reg, off int64) { c.Store(b, o, r, base, off) }
}

func c11Load(c *c11.C11, o c11.Order) litmus.Access {
	return func(b *arch.Builder, r, base arch.Reg, off int64) { c.Load(b, o, r, base, off) }
}
