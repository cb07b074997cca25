package optimize

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/fit"
	"repro/internal/platform/c11"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
	"repro/internal/stats"
)

// ReportVersion tags the canonical report format; byte-identity guarantees
// hold only between equal versions.
const ReportVersion = "optimize-v1"

// StrategyEncoding is a candidate's declarative spec in the report; the
// field matching the job's platform is set.
type StrategyEncoding struct {
	JVM    *jvm.Spec    `json:"jvm,omitempty"`
	Kernel *kernel.Spec `json:"kernel,omitempty"`
	C11    *c11.Spec    `json:"c11,omitempty"`
}

// CandidateReport is one candidate's verdict and score.
type CandidateReport struct {
	Name  string           `json:"name"`
	Spec  StrategyEncoding `json:"spec"`
	Sound bool             `json:"sound"`
	Gate  []GateOutcome    `json:"gate"`
	// Perf is the measured summary; only sound candidates are measured.
	Perf *stats.Summary `json:"perf,omitempty"`
	// Ratio is measured performance relative to the baseline (geometric
	// means; >1 is faster).
	Ratio float64 `json:"ratio,omitempty"`
	// PredictedCostNs is the per-invocation cost change vs the baseline
	// implied by the fitted model (equation 2); omitted when the fit
	// did not resolve.
	PredictedCostNs *float64 `json:"predicted_cost_ns,omitempty"`
	// Rank orders the sound candidates by measured performance
	// (1 = best); unsound candidates carry rank 0.
	Rank int `json:"rank,omitempty"`
}

// Report is the optimizer's final output.  It contains no wall-clock or
// host-dependent fields: the same normalised spec and seed yield
// byte-identical CanonicalJSON wherever the cells were executed.
type Report struct {
	Version string `json:"version"`
	Spec    Spec   `json:"spec"`
	// SensitivityK is the scoring workload's fitted sensitivity to the
	// instrumented path, with its relative standard error (percent).
	SensitivityK  float64           `json:"sensitivity_k"`
	KRelErrPct    *float64          `json:"k_rel_err_pct,omitempty"`
	FitPoints     []fit.Point       `json:"fit_points,omitempty"`
	Candidates    []CandidateReport `json:"candidates"`
	Best          string            `json:"best,omitempty"`
	Unsound       int               `json:"unsound"`
	CellsExecuted int               `json:"cells_executed"`
}

// CanonicalJSON renders the report in its canonical byte form: indented
// JSON with sorted object keys (Go marshals map keys sorted; struct fields
// follow declaration order) and a trailing newline.
func (r *Report) CanonicalJSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// SoundNames extracts the set of candidates whose gate cells passed every
// shape, from a results map keyed by cell name.
func SoundNames(sp Spec, results map[string]CellResult) (map[string]bool, error) {
	cands, err := sp.Candidates()
	if err != nil {
		return nil, err
	}
	sound := make(map[string]bool, len(cands))
	for _, c := range cands {
		res, ok := results["gate/"+c.Name]
		if !ok {
			return nil, fmt.Errorf("optimize: missing gate result for %s", c.Name)
		}
		if len(res.Gate) > 0 && !slices.ContainsFunc(res.Gate, func(g GateOutcome) bool { return !g.Sound }) {
			sound[c.Name] = true
		}
	}
	return sound, nil
}

// Assemble computes the final report from the collected cell results.  sp
// must be the normalised spec the cells were built from.
func Assemble(sp Spec, results map[string]CellResult) (*Report, error) {
	cands, err := sp.Candidates()
	if err != nil {
		return nil, err
	}
	sound, err := SoundNames(sp, results)
	if err != nil {
		return nil, err
	}
	if !sound[sp.Baseline] {
		return nil, fmt.Errorf("optimize: baseline strategy %q was rejected by the soundness gate", sp.Baseline)
	}
	baseRes, ok := results["measure/"+sp.Baseline]
	if !ok || baseRes.Perf == nil {
		return nil, fmt.Errorf("optimize: missing baseline measurement for %q", sp.Baseline)
	}
	base := *baseRes.Perf

	rep := &Report{
		Version:       ReportVersion,
		Spec:          sp,
		CellsExecuted: len(results),
	}

	// Fit the workload's sensitivity to the instrumented path from the
	// cost-injection cells.
	var pts []fit.Point
	for _, a := range sp.FitCosts {
		res, ok := results[Cell{Kind: "fit", CostNs: a}.Name()]
		if !ok || res.Perf == nil {
			return nil, fmt.Errorf("optimize: missing fit measurement at cost %d", a)
		}
		if base.GeoMean > 0 {
			pts = append(pts, fit.Point{A: float64(a), P: res.Perf.GeoMean / base.GeoMean})
		}
	}
	rep.FitPoints = pts
	var k float64
	if sens, err := fit.FitSensitivity(pts); err == nil && isFinite(sens.K) {
		k = sens.K
		rep.SensitivityK = sens.K
		if re := sens.RelErr() * 100; isFinite(re) {
			re = math.Round(re*100) / 100
			rep.KRelErrPct = &re
		}
	}

	// Per-candidate verdicts, in enumeration order for now.
	for _, c := range cands {
		cr := CandidateReport{
			Name:  c.Name,
			Spec:  c.Encoding(),
			Sound: sound[c.Name],
			Gate:  results["gate/"+c.Name].Gate,
		}
		if cr.Sound {
			res, ok := results["measure/"+c.Name]
			if !ok || res.Perf == nil {
				return nil, fmt.Errorf("optimize: missing measurement for sound candidate %q", c.Name)
			}
			cr.Perf = res.Perf
			cr.Ratio = roundRatio(stats.Compare(*res.Perf, base).Ratio)
			if k > 0 {
				if cost := fit.CostIncrease(k, cr.Ratio); isFinite(cost) {
					cost = math.Round(cost*1000) / 1000
					cr.PredictedCostNs = &cost
				}
			}
		} else {
			rep.Unsound++
		}
		rep.Candidates = append(rep.Candidates, cr)
	}

	// Rank: sound candidates by measured performance (geometric mean,
	// descending; name as the deterministic tiebreak), unsound after in
	// enumeration order.
	sort.SliceStable(rep.Candidates, func(i, j int) bool {
		a, b := &rep.Candidates[i], &rep.Candidates[j]
		if a.Sound != b.Sound {
			return a.Sound
		}
		if !a.Sound {
			return false // keep enumeration order among unsound
		}
		if a.Perf.GeoMean != b.Perf.GeoMean {
			return a.Perf.GeoMean > b.Perf.GeoMean
		}
		return a.Name < b.Name
	})
	for i := range rep.Candidates {
		if cr := &rep.Candidates[i]; cr.Sound {
			cr.Rank = i + 1
			if i == 0 {
				rep.Best = cr.Name
			}
		}
	}
	return rep, nil
}

// roundRatio quantises a performance ratio to 6 decimal places so the
// canonical report does not depend on float printing at full precision.
func roundRatio(r float64) float64 {
	return math.Round(r*1e6) / 1e6
}

func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Run executes the whole optimizer job in-process: gate wave, then scoring
// wave, then assembly.  The engine's distributed path executes the same
// cells through the dispatcher and must produce a byte-identical report.
func Run(spec Spec) (*Report, error) {
	sp := spec.WithDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	results := map[string]CellResult{}
	run := func(cells []Cell, err error) error {
		if err != nil {
			return err
		}
		for _, c := range cells {
			res, err := RunCell(c, nil)
			if err != nil {
				return err
			}
			results[res.Cell] = res
		}
		return nil
	}
	if err := run(sp.GateCells()); err != nil {
		return nil, err
	}
	sound, err := SoundNames(sp, results)
	if err != nil {
		return nil, err
	}
	if err := run(sp.ScoreCells(sound)); err != nil {
		return nil, err
	}
	return Assemble(sp, results)
}
