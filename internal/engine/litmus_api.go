package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/wmm/client"
)

// Litmus campaign API:
//
//	POST   /api/v1/litmus        submit a campaign (LitmusSpec), returns
//	                             {"id", "state", "total"}; 429 under saturation
//	GET    /api/v1/litmus        campaign statuses, in submission order
//	GET    /api/v1/litmus/{id}   status; ?results=1 includes shard results
//	                             while running; ?canonical=1 serves canonical
//	                             JSON of the ordered shard results
//	DELETE /api/v1/litmus/{id}   cancel a running campaign / remove a
//	                             finished one

// litmusJob is the litmus kind's half of a job: one cell per shard.
type litmusJob struct {
	spec      client.LitmusSpec
	shards    []LitmusShard
	completed []*Result // shard results, completion order, while running
}

// LitmusStatus is the snapshot served by GET /api/v1/litmus/{id}.  The
// id / kind / state / tenant / started_at / finished_at header is the
// envelope shared by every v1 job resource.  It is the server's form of
// client.LitmusStatus, with typed results.
type LitmusStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Tenant string `json:"tenant,omitempty"`
	// FinishedAt is set once the campaign leaves the running state.
	FinishedAt *time.Time        `json:"finished_at,omitempty"`
	Spec       client.LitmusSpec `json:"spec"`
	Total      int               `json:"total"`     // shards
	Completed  int               `json:"completed"` // shards finished
	// Tests and Trials aggregate the completed shards' execution
	// accounting (tests run, randomized trials performed).
	Tests     int       `json:"tests"`
	Trials    int       `json:"trials"`
	Error     string    `json:"error,omitempty"`
	StartedAt time.Time `json:"started_at"`
	WallMs    int64     `json:"wall_ms"`
	Results   []*Result `json:"results,omitempty"`
}

// parseLitmus is the litmus kind's submission.
func (s *Server) parseLitmus(r *http.Request) (jobBody, jobHeader, error) {
	var spec client.LitmusSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		return nil, jobHeader{}, fmt.Errorf("bad litmus spec: %v", err)
	}
	spec = litmusDefaults(spec)
	if err := validateLitmus(spec); err != nil {
		return nil, jobHeader{}, fmt.Errorf("bad litmus spec: %v", err)
	}
	if spec.Parallel <= 0 {
		spec.Parallel = s.defaultParallel
	}
	tenant, err := resolveTenant(r, spec.Tenant)
	if err != nil {
		return nil, jobHeader{}, err
	}
	spec.Tenant = tenant
	return newLitmusJob(spec)
}

// newLitmusJob builds a campaign from its normalised spec.
func newLitmusJob(spec client.LitmusSpec) (jobBody, jobHeader, error) {
	b := &litmusJob{spec: spec, shards: litmusShards(spec)}
	return b, jobHeader{tenant: spec.Tenant, total: len(b.shards), parallel: spec.Parallel, timeoutMs: spec.TimeoutMs, spec: spec}, nil
}

func (b *litmusJob) drive(ctx context.Context, j *serverJob) ([]*Result, error) {
	cells := make([]Cell, len(b.shards))
	for i, sh := range b.shards {
		cells[i] = newCell(sh.name(), "", "litmus", sh)
	}
	return j.dispatch(ctx, cells)
}

func (b *litmusJob) started(string) *client.Event { return nil }

func (b *litmusJob) done(res *Result) *client.Event {
	b.completed = append(b.completed, res)
	return nil
}

func (b *litmusJob) status(j *serverJob, v statusView) any {
	st := LitmusStatus{
		ID:        j.id,
		Kind:      "litmus",
		State:     j.state,
		Tenant:    b.spec.Tenant,
		Spec:      b.spec,
		Total:     len(b.shards),
		Completed: j.completed,
		Error:     j.err,
		StartedAt: j.started,
	}
	st.FinishedAt, st.WallMs = j.timing()
	st.Results, st.Tests, st.Trials = j.shownResults(b.completed, v)
	return st
}

func (b *litmusJob) canonical(j *serverJob) ([]byte, error) {
	if j.final == nil { // restored without every shard's checkpoint
		return nil, nil
	}
	return CanonicalRunJSON(j.final)
}
