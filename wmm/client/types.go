package client

import (
	"encoding/json"
	"fmt"
	"time"
)

// RunSpec is the body of POST /api/v1/runs.
type RunSpec struct {
	// Experiments to run, in order; empty = the full evaluation in
	// paper order.
	Experiments []string `json:"experiments,omitempty"`
	// Short selects the reduced sweep.
	Short bool `json:"short"`
	// Samples per measurement (0 = driver default).
	Samples int `json:"samples,omitempty"`
	// Seed is the base random seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Parallel experiments in flight (0 = server default).
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMs bounds the whole run; 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Adaptive opts in to sequential stopping: each measurement draws
	// samples until its Student-t 95% CI is tight enough, instead of the
	// fixed count.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	// NoCache bypasses the server's content-addressed result cache for
	// this run: every job executes and nothing is committed.
	NoCache bool `json:"nocache,omitempty"`
	// Tenant names the fair-share queue and quota bucket the run is
	// accounted to.  The X-WMM-Tenant header (see WithTenant) takes
	// precedence; empty = "default".  Tenancy never affects result
	// bytes: the result cache deduplicates identical jobs across tenants.
	Tenant string `json:"tenant,omitempty"`
}

// AdaptiveSpec is the sequential stopping rule carried by RunSpec: the
// wire form of the server's stats.StopRule.
type AdaptiveSpec struct {
	// RelPrecision stops sampling once (CI half-width)/|mean| is at or
	// below it; must be in (0, 1].
	RelPrecision float64 `json:"rel_precision"`
	// MinSamples floors the sample count before the precision test
	// applies (0 = server default, 3).
	MinSamples int `json:"min_samples,omitempty"`
	// MaxSamples is the hard ceiling (0 = server default, 64).
	MaxSamples int `json:"max_samples,omitempty"`
}

// Submitted acknowledges an accepted run, campaign or optimizer job.
type Submitted struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
}

// Result is one experiment's structured outcome.  Tables and Fits are
// carried as raw JSON so the client does not redeclare the engine's
// report model; decode them into your own types as needed.
type Result struct {
	Experiment   string            `json:"experiment"`
	Paper        string            `json:"paper"`
	Desc         string            `json:"desc"`
	Status       string            `json:"status"`
	Tables       []json.RawMessage `json:"tables,omitempty"`
	Fits         []json.RawMessage `json:"fits,omitempty"`
	Measurements int               `json:"measurements"`
	Samples      int               `json:"samples"`
	WallNs       int64             `json:"wall_ns"`
	Output       string            `json:"output"`
	Err          string            `json:"error,omitempty"`
	// Cache is the result's provenance when it was served from the
	// server's result cache ("memory", "store", or "singleflight")
	// instead of executed; empty for an actual execution.
	Cache string `json:"cache,omitempty"`
}

// Job states: the values of every status's State field.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	StatePartial   = "partial"
)

// RunStatus is the snapshot served by GET /api/v1/runs/{id}.  The id /
// kind / state / tenant / started_at / finished_at header is the
// envelope shared by every v1 job resource (runs, litmus, optimize).
type RunStatus struct {
	ID           string     `json:"id"`
	Kind         string     `json:"kind"`
	State        string     `json:"state"`
	Tenant       string     `json:"tenant,omitempty"`
	FinishedAt   *time.Time `json:"finished_at,omitempty"`
	Spec         RunSpec    `json:"spec"`
	Total        int        `json:"total"`
	Completed    int        `json:"completed"`
	Running      []string   `json:"running,omitempty"`
	Resumed      bool       `json:"resumed,omitempty"`
	Measurements int        `json:"measurements"`
	Samples      int        `json:"samples"`
	Error        string     `json:"error,omitempty"`
	StartedAt    time.Time  `json:"started_at"`
	WallMs       int64      `json:"wall_ms"`
	Results      []Result   `json:"results,omitempty"`
}

// Event is one NDJSON progress record from a streamed run.
type Event struct {
	Event      string `json:"event"` // "started" | "done" | "end"
	Experiment string `json:"experiment,omitempty"`
	Error      string `json:"error,omitempty"`
	WallMs     int64  `json:"wall_ms,omitempty"`
	State      string `json:"state,omitempty"` // on "end"
	Completed  int    `json:"completed,omitempty"`
	Total      int    `json:"total,omitempty"`
}

// ExperimentInfo is one catalogue entry.
type ExperimentInfo struct {
	Name  string `json:"name"`
	Paper string `json:"paper"`
	Desc  string `json:"desc"`
}

// Page selects one page of a cursor-paginated listing.
type Page struct {
	// Limit bounds the page size (0 = server default, 100).
	Limit int
	// After is the exclusive cursor: the last item of the previous
	// page, as returned in NextAfter.
	After string
}

// ExperimentsPage is one page of the experiment catalogue.
type ExperimentsPage struct {
	Items     []ExperimentInfo `json:"items"`
	NextAfter string           `json:"next_after,omitempty"`
}

// RunsPage is one page of run statuses.
type RunsPage struct {
	Items     []RunStatus `json:"items"`
	NextAfter string      `json:"next_after,omitempty"`
}

// CancelResponse acknowledges DELETE /api/v1/{runs,litmus,optimize}/{id}:
// State is "cancelling" for a running job, else the finished job's
// state with Deleted set.
type CancelResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Deleted bool   `json:"deleted,omitempty"`
}

// Job is one leased cell: the job it belongs to (RunID), its name
// (Experiment), and Kind's self-contained descriptor, carried opaquely —
// the worker hands Kind and Cell to the engine, whose cell types the
// client does not redeclare.
type Job struct {
	RunID      string          `json:"run_id"`
	Experiment string          `json:"experiment"`
	Kind       string          `json:"kind"`
	Cell       json.RawMessage `json:"cell"`
}

// LitmusSpec is the body of POST /api/v1/litmus: a campaign of
// generated litmus tests against one simulated machine.  The batch is
// a pure function of (GenSeed, Count, MaxThreads); the coordinator
// shards it by index range and workers regenerate their slice.
type LitmusSpec struct {
	// Arch selects the machine: "armv8" or "power7".
	Arch string `json:"arch"`
	// GenSeed drives the generator (0 = 1).
	GenSeed int64 `json:"gen_seed,omitempty"`
	// Count is the number of distinct generated tests.
	Count int `json:"count"`
	// MaxThreads caps the cycle length (2..4; 0 = 4).
	MaxThreads int `json:"max_threads,omitempty"`
	// Trials is the randomized trial count per test (0 = 400).
	Trials int `json:"trials,omitempty"`
	// Seed is the runner's base seed (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// ShardSize is the number of tests per dispatched shard (0 = 50).
	ShardSize int `json:"shard_size,omitempty"`
	// Parallel shards in flight at once (0 = server default).
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMs bounds the whole campaign; 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Tenant names the fair-share queue and quota bucket the campaign
	// is accounted to (the X-WMM-Tenant header wins; empty = "default").
	Tenant string `json:"tenant,omitempty"`
}

// LitmusStatus is the snapshot served by GET /api/v1/litmus/{id}.
// Each Result is one shard: Output carries a canonical JSON array of
// per-test outcome rows {"name", "trials", "hits", "relaxed"}.
type LitmusStatus struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	State      string     `json:"state"`
	Tenant     string     `json:"tenant,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Spec       LitmusSpec `json:"spec"`
	Total      int        `json:"total"`     // shards
	Completed  int        `json:"completed"` // shards finished
	Tests      int        `json:"tests"`
	Trials     int        `json:"trials"`
	Error      string     `json:"error,omitempty"`
	StartedAt  time.Time  `json:"started_at"`
	WallMs     int64      `json:"wall_ms"`
	Results    []Result   `json:"results,omitempty"`
}

// OptimizeSpec is the body of POST /api/v1/optimize: a fence-strategy
// optimizer job.  The search enumerates per-barrier lowering strategies
// for one platform (Strategies, or the platform's full catalogue),
// proves each candidate sound by exhaustive litmus exploration, then
// ranks the sound survivors by measured throughput on the workload mix.
type OptimizeSpec struct {
	// Platform selects the strategy catalogue: "jvm", "kernel" or "c11"
	// (empty = "jvm").
	Platform string `json:"platform,omitempty"`
	// Arch is the simulated machine: "armv8" or "power7" (empty =
	// "armv8").
	Arch string `json:"arch,omitempty"`
	// Strategies restricts the search space by name; empty = the
	// platform's full catalogue.  Must include the baseline.
	Strategies []string `json:"strategies,omitempty"`
	// Baseline names the strategy ratios are computed against (empty =
	// the platform's conventional default).
	Baseline string `json:"baseline,omitempty"`
	// Gate configures the soundness check.
	Gate OptimizeGate `json:"gate"`
	// Workload configures the scoring measurement.
	Workload OptimizeWorkload `json:"workload"`
	// Samples per measurement cell (0 = 5).
	Samples int `json:"samples,omitempty"`
	// FitCosts are the synthetic barrier costs (ns) swept for the
	// sensitivity fit; at least two, strictly increasing (empty =
	// defaults).
	FitCosts []int64 `json:"fit_costs,omitempty"`
	// Seed drives every measurement (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Parallel cells in flight at once (0 = server default).
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMs bounds the whole job; 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the cluster result cache: every cell executes
	// even when a prior job already measured the identical cell.
	NoCache bool `json:"nocache,omitempty"`
	// Tenant names the fair-share queue and quota bucket the job is
	// accounted to (the X-WMM-Tenant header wins; empty = "default").
	Tenant string `json:"tenant,omitempty"`
}

// OptimizeGate configures the soundness gate of an optimizer job.
type OptimizeGate struct {
	// Shapes are the litmus shapes every candidate must pass (empty =
	// the platform's defaults).
	Shapes []string `json:"shapes,omitempty"`
	// MaxDelay bounds the exhaustive exploration's reorder-delay search
	// (0 = 32).
	MaxDelay int64 `json:"max_delay,omitempty"`
}

// OptimizeWorkload configures the scoring workload of an optimizer job.
type OptimizeWorkload struct {
	// Mix weights operations by name (empty = the platform's default
	// mix).
	Mix map[string]int `json:"mix,omitempty"`
	// Cores simulated (0 = 4).
	Cores int `json:"cores,omitempty"`
	// MaxCycles bounds one measurement (0 = server default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
}

// OptimizeStatus is the snapshot served by GET /api/v1/optimize/{id}.
// Report carries the final ranked report as raw JSON once the job is
// done; fetch ?canonical=1 (CanonicalOptimize) for the byte-comparable
// form.
type OptimizeStatus struct {
	ID              string          `json:"id"`
	Kind            string          `json:"kind"`
	State           string          `json:"state"`
	Tenant          string          `json:"tenant,omitempty"`
	Phase           string          `json:"phase"` // "gate" | "measure" | "done"
	Spec            OptimizeSpec    `json:"spec"`
	Candidates      int             `json:"candidates"`
	Tried           int             `json:"tried"`
	RejectedUnsound int             `json:"rejected_unsound"`
	Scored          int             `json:"scored"`
	Best            string          `json:"best,omitempty"`
	CellsDone       int             `json:"cells_done"`
	Error           string          `json:"error,omitempty"`
	StartedAt       time.Time       `json:"started_at"`
	FinishedAt      *time.Time      `json:"finished_at,omitempty"`
	WallMs          int64           `json:"wall_ms"`
	Report          json.RawMessage `json:"report,omitempty"`
}

// OptimizePage is one page of optimizer job statuses.
type OptimizePage struct {
	Items     []OptimizeStatus `json:"items"`
	NextAfter string           `json:"next_after,omitempty"`
}

// LitmusPage is one page of litmus campaign statuses.
type LitmusPage struct {
	Items     []LitmusStatus `json:"items"`
	NextAfter string         `json:"next_after,omitempty"`
}

// LeaseRequest is the body of POST /api/v1/leases: the worker's name
// (for assignment records and logs) and the most cells it takes (0 or
// more than the coordinator's batch cap = the cap).
type LeaseRequest struct {
	MaxJobs int    `json:"max_jobs"`
	Worker  string `json:"worker"`
}

// LeaseGrant is a batch of jobs under a TTL'd lease.  An empty LeaseID
// means the queue had no work; poll again after an idle interval.
type LeaseGrant struct {
	LeaseID string `json:"lease_id,omitempty"`
	TTLMs   int64  `json:"ttl_ms,omitempty"`
	Jobs    []Job  `json:"jobs"`
}

// TTL is the grant's lease duration.
func (g LeaseGrant) TTL() time.Duration { return time.Duration(g.TTLMs) * time.Millisecond }

// JobResult is one completed job's upload.  Result carries the
// executed engine Result as raw JSON, byte-for-byte as produced.
type JobResult struct {
	RunID      string          `json:"run_id"`
	Experiment string          `json:"experiment"`
	Result     json.RawMessage `json:"result"`
}

// ResultsUpload is the body of POST /api/v1/leases/{id}/results.
type ResultsUpload struct {
	Results []JobResult `json:"results"`
}

// UploadAck reports how a lease settled: jobs accepted with results,
// and jobs the upload did not cover that were re-queued.
type UploadAck struct {
	Accepted int `json:"accepted"`
	Requeued int `json:"requeued"`
}

// HeartbeatReply is the reply to POST /api/v1/leases/{id}/heartbeat:
// the renewed lease's TTL.
type HeartbeatReply struct {
	TTLMs int64 `json:"ttl_ms"`
}

// ErrorEnvelope is the body of every non-2xx response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is an error envelope's machine-readable code and message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error is a non-2xx response: its ErrorEnvelope's code and message,
// plus transport context.  RetryAfter is populated from the Retry-After
// header on 429.
type Error struct {
	Status     int    // HTTP status code
	Code       string // machine-readable error code ("not_found", "saturated", ...)
	Message    string
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("api error %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("api error %d: %s", e.Status, e.Message)
}

// IsNotFound reports whether err is an API 404.
func IsNotFound(err error) bool {
	var e *Error
	return asError(err, &e) && e.Status == 404
}

// IsSaturated reports whether err is an admission-control 429 — the
// caller should back off for e.RetryAfter and resubmit.
func IsSaturated(err error) bool {
	var e *Error
	return asError(err, &e) && e.Status == 429
}

// IsUnavailable reports whether err is a 503 — the server is shutting
// down, or an HA standby has not (yet) been promoted to leader.  The
// client retries these itself; seeing one here means the retry budget
// ran out.
func IsUnavailable(err error) bool {
	var e *Error
	return asError(err, &e) && e.Status == 503
}
