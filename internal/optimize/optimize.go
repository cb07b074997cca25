// Package optimize implements the fence-strategy optimizer: a
// deterministic search over the per-barrier lowering strategies each
// platform exposes (the five read_barrier_depends implementations and
// la/sr on the kernel, the JDK8 dmb-bracketed vs JDK9 ldar/stlr lowerings
// plus generated hybrids on the JVM, the per-arch C11 mappings), where
// every candidate must be proved SOUND by an exhaustive litmus gate before
// it is scored FAST against a caller-chosen workload mix with the paper's
// fitted cost model.
//
// The search is a pure function of its Spec: candidates come from the
// platforms' enumerated strategy spaces in a stable order, the gate is an
// exhaustive exploration (not sampling), measurement samples are
// positionally seeded, and the final report is canonicalised — the same
// spec and seed produce byte-identical reports no matter which workers ran
// the cells.
package optimize

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/workload"
)

// Spec describes one optimizer job.  WithDefaults materialises every
// optional field, so a normalised spec is fully explicit; the canonical
// report embeds the normalised form.
type Spec struct {
	// Platform is "jvm", "kernel" or "c11".
	Platform string `json:"platform"`
	// Arch is the architecture profile: "armv8" (MCA) or "power7"
	// (non-MCA).
	Arch string `json:"arch"`
	// Strategies selects candidates by canonical name from the
	// platform's enumerated space; empty means the whole space.
	// Enumeration order is preserved regardless of selector order.
	Strategies []string `json:"strategies,omitempty"`
	// Baseline names the strategy ratios and predicted costs are
	// computed against.  It must be among the selected candidates.
	// Defaults: jvm "jdk8-barriers", kernel "base case", c11 "barriers".
	Baseline string `json:"baseline,omitempty"`
	// Gate configures the litmus soundness gate.
	Gate GateSpec `json:"gate"`
	// Workload configures the scoring workload.
	Workload WorkloadSpec `json:"workload"`
	// Samples is the number of measurement samples per cell (default 5).
	Samples int `json:"samples,omitempty"`
	// FitCosts are the injected per-invocation costs (ns) used to fit
	// the benchmark's sensitivity k (default 8, 32, 128).
	FitCosts []int64 `json:"fit_costs,omitempty"`
	// Seed is the base seed for measurement and gate exploration
	// (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// GateSpec configures the litmus soundness gate.
type GateSpec struct {
	// Shapes lists the litmus shapes every candidate must survive;
	// empty selects the platform's full gate catalogue.
	Shapes []string `json:"shapes,omitempty"`
	// MaxDelay bounds the explorer's alignment-stagger ladder
	// (default 32).
	MaxDelay int64 `json:"max_delay,omitempty"`
}

// WorkloadSpec configures the scoring workload.
type WorkloadSpec struct {
	// Mix maps operation names (e.g. "volatile_loads", "rcu_derefs",
	// "sc_stores", "compute") to per-iteration counts; empty selects the
	// platform's default volatile-heavy mix.
	Mix map[string]int `json:"mix,omitempty"`
	// Cores is the simulated core count (default 4).
	Cores int `json:"cores,omitempty"`
	// MaxCycles bounds each measured run (default 120000).
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// WithDefaults returns a copy of sp with every optional field materialised.
func (sp Spec) WithDefaults() Spec {
	if sp.Platform == "" {
		sp.Platform = "jvm"
	}
	if sp.Arch == "" {
		sp.Arch = "armv8"
	}
	p := platforms[sp.Platform] // zero for an unknown platform, which Validate refuses
	if sp.Baseline == "" {
		sp.Baseline = p.baseline
	}
	if len(sp.Gate.Shapes) == 0 {
		for _, g := range p.gates {
			sp.Gate.Shapes = append(sp.Gate.Shapes, g.name)
		}
	}
	if sp.Gate.MaxDelay == 0 {
		sp.Gate.MaxDelay = 32
	}
	if len(sp.Workload.Mix) == 0 {
		sp.Workload.Mix = maps.Clone(p.mix)
	}
	if sp.Workload.Cores == 0 {
		sp.Workload.Cores = 4
	}
	if sp.Workload.MaxCycles == 0 {
		sp.Workload.MaxCycles = 120_000
	}
	if sp.Samples == 0 {
		sp.Samples = 5
	}
	if len(sp.FitCosts) == 0 {
		sp.FitCosts = []int64{8, 32, 128}
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp
}

// Profile resolves the spec's architecture profile.
func (sp Spec) Profile() (*arch.Profile, error) {
	prof, err := arch.ByName(sp.Arch)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	return prof, nil
}

// Validate checks a normalised spec.  Call on the WithDefaults form.
func (sp Spec) Validate() error {
	p, err := sp.lookupPlatform()
	if err != nil {
		return err
	}
	if _, err := sp.Profile(); err != nil {
		return err
	}
	if _, err := sp.Candidates(); err != nil {
		return err
	}
	for _, s := range sp.Gate.Shapes {
		if _, ok := p.gate(s); !ok {
			return fmt.Errorf("optimize: unknown gate shape %q for platform %s", s, sp.Platform)
		}
	}
	if sp.Gate.MaxDelay < 1 || sp.Gate.MaxDelay > 384 {
		return fmt.Errorf("optimize: gate max_delay %d out of range [1,384]", sp.Gate.MaxDelay)
	}
	if _, err := sp.mix(); err != nil {
		return err
	}
	if sp.Workload.Cores < 2 || sp.Workload.Cores > 8 {
		return fmt.Errorf("optimize: cores %d out of range [2,8]", sp.Workload.Cores)
	}
	if sp.Workload.MaxCycles < 10_000 || sp.Workload.MaxCycles > 1_000_000 {
		return fmt.Errorf("optimize: max_cycles %d out of range [10000,1000000]", sp.Workload.MaxCycles)
	}
	if sp.Samples < 2 || sp.Samples > 64 {
		return fmt.Errorf("optimize: samples %d out of range [2,64]", sp.Samples)
	}
	if len(sp.FitCosts) < 2 {
		return fmt.Errorf("optimize: need at least 2 fit_costs, have %d", len(sp.FitCosts))
	}
	prev := int64(0)
	for _, a := range sp.FitCosts {
		if a < 1 || a > 100_000 {
			return fmt.Errorf("optimize: fit cost %d out of range [1,100000]", a)
		}
		if a <= prev {
			return fmt.Errorf("optimize: fit_costs must be strictly increasing")
		}
		prev = a
	}
	if sp.Seed < 1 {
		return fmt.Errorf("optimize: seed must be positive")
	}
	return nil
}

// Candidate is one strategy under consideration: its canonical name, its
// declarative encoding for the report (shared by every report, so
// read-only), and its binding into a workload environment.
type Candidate struct {
	Name string
	enc  StrategyEncoding
	bind func(workload.Env) workload.Env
}

// Encoding returns the candidate's declarative spec encoding for the
// report.
func (c Candidate) Encoding() StrategyEncoding { return c.enc }

// env binds the candidate strategy into the profile's default workload
// environment.
func (c Candidate) env(prof *arch.Profile) workload.Env {
	return c.bind(workload.DefaultEnv(prof))
}

// Candidates resolves the spec's strategy selectors against the platform's
// enumerated space, preserving enumeration order, and checks the baseline
// is among them.
func (sp Spec) Candidates() ([]Candidate, error) {
	p, err := sp.lookupPlatform()
	if err != nil {
		return nil, err
	}
	cands := slices.Clone(p.space)
	named := func(n string) func(Candidate) bool { return func(c Candidate) bool { return c.Name == n } }
	if len(sp.Strategies) > 0 {
		var missing []string
		for _, n := range sp.Strategies {
			if !slices.ContainsFunc(cands, named(n)) && !slices.Contains(missing, n) {
				missing = append(missing, n)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			return nil, fmt.Errorf("optimize: unknown %s strategies %v", sp.Platform, missing)
		}
		cands = slices.DeleteFunc(cands, func(c Candidate) bool { return !slices.Contains(sp.Strategies, c.Name) })
	}
	if !slices.ContainsFunc(cands, named(sp.Baseline)) {
		return nil, fmt.Errorf("optimize: baseline %q not among selected strategies", sp.Baseline)
	}
	return cands, nil
}

// mixCommon maps the mix operations every platform accepts onto Mix
// fields; each platform's own operations are in its ops.
var mixCommon = map[string]func(*workload.Mix) *int{
	"compute":      func(m *workload.Mix) *int { return &m.Compute },
	"priv_loads":   func(m *workload.Mix) *int { return &m.PrivLoads },
	"priv_stores":  func(m *workload.Mix) *int { return &m.PrivStores },
	"shared_loads": func(m *workload.Mix) *int { return &m.SharedLoads },
}

// MixNames returns the operation names a platform's workload mix accepts,
// sorted (common section first is not guaranteed; names are unique).
func MixNames(platform string) []string {
	out := slices.AppendSeq(slices.Collect(maps.Keys(mixCommon)), maps.Keys(platforms[platform].ops))
	slices.Sort(out)
	return out
}

// mix decodes the spec's named mix into a workload.Mix and checks it
// exercises at least one platform operation (otherwise every fencing
// strategy scores identically and the search is vacuous).
func (sp Spec) mix() (workload.Mix, error) {
	var m workload.Mix
	plat := platforms[sp.Platform].ops
	platOps := 0
	for name, v := range sp.Workload.Mix {
		if v < 0 || v > 64 {
			return m, fmt.Errorf("optimize: mix[%q] = %d out of range [0,64]", name, v)
		}
		if f, ok := mixCommon[name]; ok {
			*f(&m) = v
			continue
		}
		if f, ok := plat[name]; ok {
			*f(&m) = v
			platOps += v
			continue
		}
		return m, fmt.Errorf("optimize: unknown mix operation %q for platform %s (known: %v)",
			name, sp.Platform, MixNames(sp.Platform))
	}
	if platOps < 1 {
		return m, fmt.Errorf("optimize: mix exercises no %s operations", sp.Platform)
	}
	return m, nil
}
