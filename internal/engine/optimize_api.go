package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/optimize"
	"repro/wmm/client"
)

// Fence-strategy optimizer API:
//
//	POST   /api/v1/optimize       submit a job (OptimizeSpec), returns
//	                              {"id", "state", "total"}; 429 under saturation
//	GET    /api/v1/optimize       job statuses, in submission order (paginated)
//	GET    /api/v1/optimize/{id}  status: phase, candidates tried / rejected
//	                              unsound / scored, best-so-far; the final
//	                              report once finished; ?canonical=1 serves
//	                              the report's canonical JSON
//	DELETE /api/v1/optimize/{id}  cancel a running job / remove a finished one
//
// A job runs in two waves through the dispatcher: gate cells (one
// exhaustive litmus gate per candidate strategy) and then score cells
// (one measurement per sound survivor plus the sensitivity fits).
// Cells are content-addressed, so resubmitting a spec resolves from the
// result cache; the canonical report is byte-identical wherever the
// cells executed.

// optimizeJob is the optimize kind's half of a job.
type optimizeJob struct {
	spec       OptimizeSpec
	candidates int
	phase      string // "gate" -> "measure"; "done" once the job ends
	tried      int    // gate cells completed
	rejected   int    // candidates the gate proved unsound
	scored     int    // measure cells completed
	best       string
	bestGeo    float64
	report     *optimize.Report // set, on success only, as the job ends
}

// Optimizer job phases reported in OptimizeStatus.Phase.
const (
	PhaseGate    = "gate"
	PhaseMeasure = "measure"
	PhaseDone    = "done"
)

// OptimizeStatus is the snapshot served by GET /api/v1/optimize/{id}.
// It is the server's form of client.OptimizeStatus, with the typed report.
type OptimizeStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Tenant string `json:"tenant,omitempty"`
	// Phase is where the search currently is: "gate" (soundness
	// checking), "measure" (scoring survivors), "done".
	Phase string       `json:"phase"`
	Spec  OptimizeSpec `json:"spec"`
	// Candidates is the size of the search space; Tried counts gate
	// verdicts so far, RejectedUnsound the candidates the gate refused,
	// Scored the survivors measured so far.
	Candidates      int `json:"candidates"`
	Tried           int `json:"tried"`
	RejectedUnsound int `json:"rejected_unsound"`
	Scored          int `json:"scored"`
	// Best is the best-so-far candidate by measured throughput while the
	// job runs, and the final winner once it finishes.
	Best       string     `json:"best,omitempty"`
	CellsDone  int        `json:"cells_done"`
	Error      string     `json:"error,omitempty"`
	StartedAt  time.Time  `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	WallMs     int64      `json:"wall_ms"`
	// Report is the final ranked report, present once the job is done.
	Report *optimize.Report `json:"report,omitempty"`
}

// parseOptimize is the optimize kind's submission.
func (s *Server) parseOptimize(r *http.Request) (jobBody, jobHeader, error) {
	var spec OptimizeSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		return nil, jobHeader{}, fmt.Errorf("bad optimize spec: %v", err)
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, jobHeader{}, fmt.Errorf("bad optimize spec: %v", err)
	}
	if spec.Parallel <= 0 {
		spec.Parallel = s.defaultParallel
	}
	tenant, err := resolveTenant(r, spec.Tenant)
	if err != nil {
		return nil, jobHeader{}, err
	}
	spec.Tenant = tenant
	return newOptimizeJob(spec)
}

// newOptimizeJob builds an optimizer job from its normalised spec.
// Admission covers the first wave (one gate cell per candidate); the
// scoring wave is sized by the gate's verdicts and joins the queue when
// it exists, like lost-lease requeues.
func newOptimizeJob(spec OptimizeSpec) (jobBody, jobHeader, error) {
	gates, err := spec.GateCells()
	if err != nil { // defensive at submission: validate() already resolved the candidates
		return nil, jobHeader{}, fmt.Errorf("bad optimize spec: %v", err)
	}
	return &optimizeJob{spec: spec, candidates: len(gates), phase: PhaseGate},
		jobHeader{tenant: spec.Tenant, total: len(gates), parallel: spec.Parallel, timeoutMs: spec.TimeoutMs, spec: spec}, nil
}

// drive runs the two waves and assembles the report.  The first error —
// a cell that failed, a gate that could not complete its exploration, a
// baseline rejected as unsound — fails the job; it returns no results,
// so an optimize job never ends partial.
func (b *optimizeJob) drive(ctx context.Context, j *serverJob) ([]*Result, error) {
	sp := b.spec.Spec // normalised and validated at submission
	results := map[string]optimize.CellResult{}
	wave := func(cells []optimize.Cell) error {
		dcells := make([]Cell, len(cells))
		for i, c := range cells {
			key := ""
			if !b.spec.NoCache {
				key, _ = OptimizeCellKey(c) // an unkeyable cell just executes
			}
			dcells[i] = newCell(c.Name(), key, "optimize", c)
		}
		rs, err := j.dispatch(ctx, dcells)
		for i, res := range rs {
			cr, derr := decodeCellResult(res, cells[i].Name())
			if derr != nil {
				if err == nil {
					err = derr
				}
				continue
			}
			results[cr.Cell] = cr
		}
		return err
	}

	gates, err := sp.GateCells()
	if err != nil {
		return nil, err
	}
	if err := wave(gates); err != nil {
		return nil, err
	}
	sound, err := optimize.SoundNames(sp, results)
	if err != nil {
		return nil, err
	}
	if !sound[sp.Baseline] {
		// Fail before the scoring wave: without a sound baseline there is
		// nothing to rank against.
		return nil, fmt.Errorf("optimize: baseline strategy %q was rejected by the soundness gate", sp.Baseline)
	}
	score, err := sp.ScoreCells(sound)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	b.phase = PhaseMeasure
	j.mu.Unlock()
	if err := wave(score); err != nil {
		return nil, err
	}
	rep, err := optimize.Assemble(sp, results)
	j.mu.Lock()
	b.report = rep
	j.mu.Unlock()
	return nil, err
}

func (b *optimizeJob) started(string) *client.Event { return nil }

// done folds a completed cell into the phase counters and best-so-far.
func (b *optimizeJob) done(res *Result) *client.Event {
	var cr optimize.CellResult
	decoded := res.Status == StatusOK && json.Unmarshal([]byte(res.Output), &cr) == nil
	switch {
	case strings.HasPrefix(res.Experiment, "gate/"):
		b.tried++
		if decoded {
			sound := len(cr.Gate) > 0
			for _, g := range cr.Gate {
				sound = sound && g.Sound
			}
			if !sound {
				b.rejected++
			}
		}
	case strings.HasPrefix(res.Experiment, "measure/"):
		b.scored++
		if decoded && cr.Perf != nil && cr.Perf.GeoMean > b.bestGeo {
			b.bestGeo = cr.Perf.GeoMean
			b.best = strings.TrimPrefix(res.Experiment, "measure/")
		}
	}
	return nil
}

// status shows the report, and the winner it names, only once the job
// has ended; list rows leave the report out to stay small.
func (b *optimizeJob) status(j *serverJob, v statusView) any {
	st := OptimizeStatus{
		ID:              j.id,
		Kind:            "optimize",
		State:           j.state,
		Tenant:          b.spec.Tenant,
		Phase:           b.phase,
		Spec:            b.spec,
		Candidates:      b.candidates,
		Tried:           b.tried,
		RejectedUnsound: b.rejected,
		Scored:          b.scored,
		Best:            b.best,
		CellsDone:       j.completed,
		Error:           j.err,
		StartedAt:       j.started,
	}
	st.FinishedAt, st.WallMs = j.timing()
	if j.state != StateRunning {
		st.Phase = PhaseDone
		if b.report != nil {
			st.Best = b.report.Best
		}
		if v != viewRow {
			st.Report = b.report
		}
	}
	return st
}

func (b *optimizeJob) canonical(*serverJob) ([]byte, error) {
	if b.report == nil {
		return nil, nil
	}
	return b.report.CanonicalJSON()
}
