package optimize

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/platform/c11"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// A Cell is one deterministic unit of optimizer work: a pure function of
// its descriptor, so any worker can execute it from the wire form alone
// and its result is content-addressable for the cluster result cache.
type Cell struct {
	// Kind is "gate", "measure" or "fit".
	Kind string `json:"kind"`
	// Strategy names the candidate (gate and measure cells).
	Strategy string `json:"strategy,omitempty"`
	// CostNs is the injected per-invocation cost (fit cells).
	CostNs int64 `json:"cost_ns,omitempty"`
	// Spec is the normalised job spec the cell belongs to.
	Spec Spec `json:"spec"`
}

// Name returns the cell's unique name within its job; it doubles as the
// experiment label in cached results, so a cache hit for a different cell
// is detectable.
func (c Cell) Name() string {
	switch c.Kind {
	case "gate":
		return "gate/" + c.Strategy
	case "measure":
		return "measure/" + c.Strategy
	default:
		return fmt.Sprintf("fit/%06d", c.CostNs)
	}
}

// CellResult is the outcome of one cell.
type CellResult struct {
	Cell string `json:"cell"`
	// Gate holds the per-shape verdicts (gate cells).
	Gate []GateOutcome `json:"gate,omitempty"`
	// Perf is the measurement summary (measure and fit cells).
	Perf *stats.Summary `json:"perf,omitempty"`
}

// GateCells returns the first-wave cells: one soundness gate per
// candidate, in enumeration order.
func (sp Spec) GateCells() ([]Cell, error) {
	cands, err := sp.Candidates()
	if err != nil {
		return nil, err
	}
	out := make([]Cell, 0, len(cands))
	for _, c := range cands {
		out = append(out, Cell{Kind: "gate", Strategy: c.Name, Spec: sp})
	}
	return out, nil
}

// ScoreCells returns the second-wave cells for the candidates that
// survived the gate: one measurement per survivor plus the sensitivity-fit
// cells (which run under the baseline strategy).
func (sp Spec) ScoreCells(sound map[string]bool) ([]Cell, error) {
	cands, err := sp.Candidates()
	if err != nil {
		return nil, err
	}
	var out []Cell
	for _, c := range cands {
		if sound[c.Name] {
			out = append(out, Cell{Kind: "measure", Strategy: c.Name, Spec: sp})
		}
	}
	if sound[sp.Baseline] {
		for _, a := range sp.FitCosts {
			out = append(out, Cell{Kind: "fit", CostNs: a, Spec: sp})
		}
	}
	return out, nil
}

// paths returns the instrumented code paths for the platform: all paths
// that get nop padding, and the subset carrying injected cost in fit
// cells.
func paths(platform string) (all, instr []arch.PathID) {
	switch platform {
	case "jvm":
		all = []arch.PathID{jvm.PathAnyBarrier}
		instr = all
	case "kernel":
		all = kernel.Paths
		instr = []arch.PathID{kernel.PathReadBarrierDepends}
	case "c11":
		all = c11.Paths
		instr = []arch.PathID{c11.PathSeqCst}
	}
	return all, instr
}

// benchmark assembles the scoring benchmark for the spec.
func (sp Spec) benchmark() (*workload.Benchmark, error) {
	mix, err := sp.mix()
	if err != nil {
		return nil, err
	}
	var plat workload.Platform
	switch sp.Platform {
	case "jvm":
		plat = workload.JVMPlatform
	case "kernel":
		plat = workload.KernelPlatform
	case "c11":
		plat = workload.C11Platform
	}
	const memWords = 1 << 15
	cores := sp.Workload.Cores
	layout, err := workload.DefaultLayout(memWords, cores, 1<<11, 1<<9, 16)
	if err != nil {
		return nil, err
	}
	return &workload.Benchmark{
		Name:         "optimize/" + sp.Platform,
		Platform:     plat,
		Metric:       workload.Throughput,
		Cores:        cores,
		MemWords:     memWords,
		MaxCycles:    sp.Workload.MaxCycles,
		WarmupCycles: sp.Workload.MaxCycles / 5,
		Build: func(ctx *workload.BuildCtx) error {
			return mix.BuildLoop(ctx, layout, cores)
		},
	}, nil
}

// RunCell executes one cell.  The result is a deterministic function of
// the cell descriptor: gate cells explore exhaustively with the spec seed,
// measurement cells draw positionally-seeded samples through meas (nil
// means workload.Measure in the calling process).
func RunCell(cell Cell, meas core.Measurer) (CellResult, error) {
	sp := cell.Spec.WithDefaults()
	if err := sp.Validate(); err != nil {
		return CellResult{}, err
	}
	res := CellResult{Cell: cell.Name()}
	prof, err := sp.Profile()
	if err != nil {
		return CellResult{}, err
	}
	cands, err := sp.Candidates()
	if err != nil {
		return CellResult{}, err
	}
	find := func(name string) (Candidate, error) {
		for _, c := range cands {
			if c.Name == name {
				return c, nil
			}
		}
		return Candidate{}, fmt.Errorf("optimize: cell names unknown strategy %q", name)
	}

	switch cell.Kind {
	case "gate":
		cand, err := find(cell.Strategy)
		if err != nil {
			return CellResult{}, err
		}
		res.Gate, err = RunGate(sp, cand)
		if err != nil {
			return CellResult{}, err
		}
	case "measure", "fit":
		bench, err := sp.benchmark()
		if err != nil {
			return CellResult{}, err
		}
		all, instr := paths(sp.Platform)
		var env workload.Env
		if cell.Kind == "measure" {
			cand, err := find(cell.Strategy)
			if err != nil {
				return CellResult{}, err
			}
			env = cand.env(prof).NopBase(all)
		} else {
			if cell.CostNs < 1 {
				return CellResult{}, fmt.Errorf("optimize: fit cell with cost %d", cell.CostNs)
			}
			base, err := find(sp.Baseline)
			if err != nil {
				return CellResult{}, err
			}
			env = base.env(prof).WithCost(instr, all, cell.CostNs)
		}
		sum, err := meas.Measure(bench, env, sp.Samples, sp.Seed)
		if err != nil {
			return CellResult{}, err
		}
		res.Perf = &sum
	default:
		return CellResult{}, fmt.Errorf("optimize: unknown cell kind %q", cell.Kind)
	}
	return res, nil
}
