package optimize

import (
	"fmt"
	"slices"

	"repro/internal/core"
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

// benchmark assembles the scoring benchmark for the spec.
func (sp Spec) benchmark() (*workload.Benchmark, error) {
	mix, err := sp.mix()
	if err != nil {
		return nil, err
	}
	const memWords = 1 << 15
	cores := sp.Workload.Cores
	layout, err := workload.DefaultLayout(memWords, cores, 1<<11, 1<<9, 16)
	if err != nil {
		return nil, err
	}
	return &workload.Benchmark{
		Name:         "optimize/" + sp.Platform,
		Platform:     platforms[sp.Platform].bench,
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
	prof, err := sp.Profile()
	if err != nil {
		return CellResult{}, err
	}
	strategy := cell.Strategy
	switch cell.Kind {
	case "gate", "measure":
	case "fit":
		if cell.CostNs < 1 {
			return CellResult{}, fmt.Errorf("optimize: fit cell with cost %d", cell.CostNs)
		}
		strategy = sp.Baseline // the fit measures the baseline under injected cost
	default:
		return CellResult{}, fmt.Errorf("optimize: unknown cell kind %q", cell.Kind)
	}
	cands, err := sp.Candidates()
	if err != nil {
		return CellResult{}, err
	}
	i := slices.IndexFunc(cands, func(c Candidate) bool { return c.Name == strategy })
	if i < 0 {
		return CellResult{}, fmt.Errorf("optimize: cell names unknown strategy %q", strategy)
	}
	res := CellResult{Cell: cell.Name()}
	if cell.Kind == "gate" {
		if res.Gate, err = RunGate(sp, cands[i]); err != nil {
			return CellResult{}, err
		}
		return res, nil
	}
	p := platforms[sp.Platform]
	env := cands[i].env(prof).NopBase(p.paths)
	if cell.Kind == "fit" {
		env = env.WithCost(p.costPaths, p.paths, cell.CostNs)
	}
	bench, err := sp.benchmark()
	if err != nil {
		return CellResult{}, err
	}
	sum, err := meas.Measure(bench, env, sp.Samples, sp.Seed)
	if err != nil {
		return CellResult{}, err
	}
	res.Perf = &sum
	return res, nil
}
