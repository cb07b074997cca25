package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/wmm/client"
)

// Run states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	// StatePartial is a run that finished with a mix of successful and
	// failed experiments: the failures are contained in their Results
	// (status "failed"/"incomplete") instead of poisoning the whole run.
	StatePartial = "partial"
)

// RunStatus is the snapshot served by GET /runs/{id}.  The id / kind /
// state / tenant / started_at / finished_at header is the envelope
// shared by every v1 job resource (runs, litmus, optimize).  It is the
// server's form of client.RunStatus, with typed results.
type RunStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Tenant string `json:"tenant,omitempty"`
	// FinishedAt is set once the run leaves the running state.
	FinishedAt *time.Time     `json:"finished_at,omitempty"`
	Spec       client.RunSpec `json:"spec"`
	Total      int            `json:"total"`
	Completed  int            `json:"completed"`
	Running    []string       `json:"running,omitempty"`
	// Resumed marks a run restarted from a runstore checkpoint after a
	// server restart.
	Resumed bool `json:"resumed,omitempty"`
	// Measurements and Samples aggregate the execution accounting of
	// the experiments completed so far — the per-run counters behind
	// the engine-wide wmm_engine_* series.
	Measurements int       `json:"measurements"`
	Samples      int       `json:"samples"`
	Error        string    `json:"error,omitempty"`
	StartedAt    time.Time `json:"started_at"`
	WallMs       int64     `json:"wall_ms"`
	Results      []*Result `json:"results,omitempty"`
}

// serverMetrics are the HTTP layer's instruments.
type serverMetrics struct {
	requests   *metrics.Counter   // method, path, code
	latency    *metrics.Histogram // method, path
	runs       *metrics.Counter   // lifecycle transitions, by state
	runsActive *metrics.Gauge     // runs currently executing
	runsKept   *metrics.Gauge     // runs retained in memory
	runsSwept  *metrics.Counter   // runs removed by GC or DELETE

	checkpoints  *metrics.Counter // job cells durably checkpointed
	storeErrors  *metrics.Counter // failed store operations, by op
	storeFenced  *metrics.Counter // store mutations refused by the fencing token
	runsResumed  *metrics.Counter // interrupted jobs resumed on startup
	runsRestored *metrics.Counter // finished jobs replayed into the catalogue

	assignments   *metrics.Counter // jobs assigned to remote workers
	litmusRuns    *metrics.Counter // litmus campaign lifecycle transitions, by state
	litmusSwept   *metrics.Counter // litmus campaigns removed by GC or DELETE
	optimizeRuns  *metrics.Counter // optimizer job lifecycle transitions, by state
	optimizeSwept *metrics.Counter // optimizer jobs removed by GC or DELETE
	cacheSwept    *metrics.Counter // persisted cache entries removed by retention

	tenantRuns *metrics.Gauge // jobs of every kind executing, by tenant
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		requests:   r.Counter("wmm_http_requests_total", "HTTP requests served, by route and status code.", "method", "path", "code"),
		latency:    r.Histogram("wmm_http_request_seconds", "HTTP request latency, by route.", nil, "method", "path"),
		runs:       r.Counter("wmm_runs_total", "Run lifecycle transitions (submitted/done/failed/cancelled/partial).", "state"),
		runsActive: r.Gauge("wmm_runs_active", "Runs currently executing."),
		runsKept:   r.Gauge("wmm_runs_retained", "Runs held in memory (running + finished awaiting retention)."),
		runsSwept:  r.Counter("wmm_runs_swept_total", "Finished runs removed by the retention sweep or DELETE."),

		checkpoints:  r.Counter("wmm_store_checkpoints_written_total", "Job cells (run experiments, litmus shards, optimizer cells) durably checkpointed to the run store."),
		storeErrors:  r.Counter("wmm_store_errors_total", "Failed run-store operations, by operation.", "op"),
		storeFenced:  r.Counter("wmm_store_fenced_writes_total", "Store mutations refused by the lease fencing token (this process was deposed)."),
		runsResumed:  r.Counter("wmm_runs_resumed_total", "Interrupted jobs of every kind resumed from the store on startup."),
		runsRestored: r.Counter("wmm_runs_restored_total", "Finished jobs of every kind replayed from the store into the catalogue."),

		assignments:   r.Counter("wmm_dispatch_assignments_total", "Experiment jobs assigned to remote workers under leases."),
		litmusRuns:    r.Counter("wmm_litmus_runs_total", "Litmus campaign lifecycle transitions (submitted/done/failed/cancelled/partial).", "state"),
		litmusSwept:   r.Counter("wmm_litmus_runs_swept_total", "Finished litmus campaigns removed by the retention sweep or DELETE."),
		optimizeRuns:  r.Counter("wmm_optimize_runs_total", "Optimizer job lifecycle transitions (submitted/done/failed/cancelled).", "state"),
		optimizeSwept: r.Counter("wmm_optimize_runs_swept_total", "Finished optimizer jobs removed by the retention sweep or DELETE."),
		cacheSwept:    r.Counter("wmm_resultcache_persist_swept_total", "Persisted result-cache entries removed by the retention sweep."),

		tenantRuns: r.Gauge("wmm_tenant_runs_running", "Jobs (runs, litmus campaigns and optimizer jobs) currently executing, by tenant.", "tenant"),
	}
}

// ServerOptions configures NewServer.
type ServerOptions struct {
	// Parallel is the experiment-level concurrency used when a RunSpec
	// does not choose its own (<= 0 falls back to the engine's worker
	// count).
	Parallel int
	// Retain bounds how long a finished run stays queryable.  The
	// retention sweep removes completed runs older than this; 0 keeps
	// them forever (the pre-retention behaviour — a leak on a
	// long-lived server).
	Retain time.Duration
	// SweepEvery is the GC interval; Retain/4 clamped to [1s, 1m] if 0.
	SweepEvery time.Duration
	// Store, when non-nil, makes jobs of every kind durable: specs and
	// completed cells are checkpointed as they happen, and Restore
	// replays them after a restart — resuming interrupted jobs from
	// their checkpoints.  A nil Store is the in-memory-only behaviour.
	// Take care to leave this nil rather than storing a typed-nil
	// *runstore.SegmentStore.
	Store runstore.Storage
	// Dispatch configures the sharded execution backend every job runs
	// on: a job's cells (a run's experiments, a campaign's shards, an
	// optimizer job's gate and score cells) join a shared queue served by
	// local executor slots and by remote wmmworker processes leasing
	// batches through POST /api/v1/leases.  Admission control refuses
	// submissions that would overflow the queue with 429 + Retry-After.
	// Nil means the default DispatchOptions.  Set Dispatch.Cache to
	// enable content-addressed result reuse.
	Dispatch *DispatchOptions
	// CacheRetain bounds how long persisted result-cache entries (the
	// Store's cache/ directory) survive; the retention sweep removes
	// older ones.  0 keeps them forever.
	CacheRetain time.Duration
	// TenantMaxRunning bounds how many jobs — runs, litmus campaigns and
	// optimizer jobs together — one tenant may have executing at once;
	// submissions beyond it are refused with 429 + Retry-After.
	// 0 = unbounded.  Resumed jobs bypass the quota — losing checkpointed
	// work is worse than a brief overshoot.
	TenantMaxRunning int
	// OnFenced is called (once) when a store mutation is refused by the
	// lease fencing token (runstore.ErrFenced): another process holds a
	// newer coordinator claim, so this one must stop serving.  Under
	// -ha, wmmd wires it to the controller's NoteFenced, which deposes
	// immediately instead of waiting for the next renew tick.
	OnFenced func()
	// DisableLegacy sunsets the pre-v1 unversioned routes (/runs,
	// /experiments, ...): they answer 410 gone pointing at their v1
	// successor instead of serving.  wmmd sets it unless started with
	// -legacy-routes=on, which it accepts until the LegacySunset date;
	// the zero value still serves the shims.
	DisableLegacy bool
}

// Server exposes the engine over HTTP: a queryable catalogue of
// experiments and asynchronous, cancellable runs with streamed progress.
// Wire its Handler into an http.Server (see cmd/wmmd) and call Shutdown
// before Engine.Close — it cancels in-flight runs and waits for them,
// so the engine's job channel is never closed mid-send.
type Server struct {
	eng              *Engine
	defaultParallel  int
	retain           time.Duration
	cacheRetain      time.Duration
	store            runstore.Storage
	disp             *Dispatcher
	met              *serverMetrics
	tenantMaxRunning int
	onFenced         func()
	fencedOnce       sync.Once
	disableLegacy    bool
	legacyWarn       sync.Once // one migration warning per process

	// The three job kinds; each holds its own catalogue under mu.
	runs, litmus, optimize *jobKind

	mu            sync.Mutex
	tenantRunning map[string]int // executing jobs of every kind, by tenant
	closed        bool

	active   sync.WaitGroup // one per executing job
	stopOnce sync.Once
	stop     chan struct{} // closes to end the retention sweeper
}

// NewServer wraps an engine.  Its metrics land in the engine's registry.
func NewServer(eng *Engine, o ServerOptions) *Server {
	if o.Parallel <= 0 {
		o.Parallel = eng.Workers()
	}
	s := &Server{
		eng:              eng,
		defaultParallel:  o.Parallel,
		retain:           o.Retain,
		cacheRetain:      o.CacheRetain,
		store:            o.Store,
		met:              newServerMetrics(eng.Metrics()),
		tenantMaxRunning: o.TenantMaxRunning,
		onFenced:         o.OnFenced,
		disableLegacy:    o.DisableLegacy,
		tenantRunning:    map[string]int{},
		stop:             make(chan struct{}),
	}
	s.runs = &jobKind{name: "run", noun: "run", unit: "jobs", parse: s.parseRun, build: rebuild(newRunJob), streams: true,
		ended: s.met.runs, swept: s.met.runsSwept, active: s.met.runsActive, kept: s.met.runsKept, jobs: map[string]*serverJob{}}
	s.litmus = &jobKind{name: "litmus", noun: "litmus campaign", unit: "shards", parse: s.parseLitmus, build: rebuild(newLitmusJob),
		ended: s.met.litmusRuns, swept: s.met.litmusSwept, jobs: map[string]*serverJob{}}
	s.optimize = &jobKind{name: "optimize", noun: "optimize job", unit: "cells", parse: s.parseOptimize, build: rebuild(newOptimizeJob),
		ended: s.met.optimizeRuns, swept: s.met.optimizeSwept, jobs: map[string]*serverJob{}}
	var dopt DispatchOptions
	if o.Dispatch != nil {
		dopt = *o.Dispatch
	}
	if dopt.OnAssign == nil {
		dopt.OnAssign = func(runID, experiment, worker string) {
			s.met.assignments.Inc()
			// The store keeps a job's assignments with its other records
			// and drops them with it.
			if s.store != nil {
				if err := s.store.Assign(runID, experiment, worker); err != nil {
					s.storeFailed("assign", err)
				}
			}
		}
	}
	s.disp = NewDispatcher(eng, dopt, o.Parallel)
	if o.Retain > 0 || (o.CacheRetain > 0 && o.Store != nil) {
		every := o.SweepEvery
		if every <= 0 {
			every = o.Retain / 4
			if every <= 0 {
				every = o.CacheRetain / 4
			}
			if every < time.Second {
				every = time.Second
			}
			if every > time.Minute {
				every = time.Minute
			}
		}
		go s.sweep(every)
	}
	return s
}

func (s *Server) kinds() []*jobKind { return []*jobKind{s.runs, s.litmus, s.optimize} }

// storeFailed accounts a failed store mutation.  When the failure is
// the fencing token refusing a deposed coordinator's write, it is
// counted separately and reported upward exactly once, so the HA
// controller deposes without waiting for its next renew tick.
func (s *Server) storeFailed(op string, err error) {
	s.met.storeErrors.Inc(op)
	if errors.Is(err, runstore.ErrFenced) {
		s.met.storeFenced.Inc()
		if s.onFenced != nil {
			s.fencedOnce.Do(s.onFenced)
		}
	}
}

// specOrder is the request order of a spec's experiments: the names it
// listed, or the full catalogue in paper order.
func specOrder(spec client.RunSpec) []string {
	if len(spec.Experiments) > 0 {
		return spec.Experiments
	}
	var names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
	}
	return names
}

// sweep periodically garbage-collects finished runs past retention.
func (s *Server) sweep(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.gc(time.Now())
		case <-s.stop:
			return
		}
	}
}

// gc removes finished jobs of every kind whose retention has lapsed
// (and persisted cache entries past their own retention), returning how
// many jobs were removed.
func (s *Server) gc(now time.Time) int {
	var victims []*serverJob
	if s.retain > 0 {
		cutoff := now.Add(-s.retain)
		s.mu.Lock()
		for _, k := range s.kinds() {
			for _, j := range k.jobs {
				j.mu.Lock()
				expired := j.state != StateRunning && j.finished.Before(cutoff)
				j.mu.Unlock()
				if expired {
					victims = append(victims, j)
				}
			}
		}
		s.mu.Unlock()
		s.remove(victims...)
	}
	// Persisted cache entries age out under their own (typically longer)
	// retention: reuse is most valuable across restarts, but the cache/
	// directory must not grow forever either.
	if s.store != nil && s.cacheRetain > 0 {
		if swept := s.store.CacheSweep(now.Add(-s.cacheRetain)); swept > 0 {
			s.met.cacheSwept.Add(float64(swept))
		}
	}
	return len(victims)
}

// Shutdown stops accepting new jobs, cancels every in-flight job, and
// waits (bounded by ctx) for their executor goroutines to finish.  After
// it returns nil, no job is mid-Measure, so Engine.Close is safe.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	var jobs []*serverJob
	for _, k := range s.kinds() {
		for _, j := range k.jobs {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	for _, j := range jobs {
		j.cancel()
	}
	// The cancellations above resolve every outstanding cell, so the
	// executor slots and reaper can stop.  A job's executor returns as
	// soon as its cells are resolved, but a local slot may still be
	// inside a cancelled cell's Measure: wait for the slots too, or
	// closing the engine next could race a sample send.
	s.disp.Close()
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		s.disp.slots.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the wmmd API.  The versioned surface is:
//
//	GET    /api/v1/experiments   the experiment catalogue (paginated)
//	POST   /api/v1/runs          submit a run (RunSpec), returns {"id": ...};
//	                             429 + Retry-After under saturation
//	GET    /api/v1/runs          run statuses (paginated: ?limit=&after=)
//	GET    /api/v1/runs/{id}     status; ?results=1 includes results while
//	                             running; ?stream=1 streams NDJSON progress;
//	                             ?canonical=1 serves canonical run JSON
//	DELETE /api/v1/runs/{id}     cancel a running run / remove a finished one
//	POST   /api/v1/litmus        submit a generated litmus campaign (LitmusSpec)
//	GET    /api/v1/litmus        campaign statuses
//	GET    /api/v1/litmus/{id}   campaign status; ?canonical=1 serves canonical
//	                             shard-result JSON
//	DELETE /api/v1/litmus/{id}   cancel / remove a campaign
//	POST   /api/v1/optimize      submit a fence-strategy optimizer job
//	                             (OptimizeSpec)
//	GET    /api/v1/optimize      optimizer job statuses (paginated)
//	GET    /api/v1/optimize/{id} job status; ?canonical=1 serves the
//	                             canonical report JSON
//	DELETE /api/v1/optimize/{id} cancel / remove an optimizer job
//	POST   /api/v1/leases        worker job lease (sharded backend)
//	POST   /api/v1/leases/{id}/heartbeat   renew a lease
//	POST   /api/v1/leases/{id}/results     upload a lease's results
//
// plus the unversioned operational routes (/healthz, /readyz, /metrics)
// and the legacy unversioned API (/experiments, /runs, /runs/{id}),
// kept as thin shims over the v1 handlers that add Deprecation and
// Sunset headers (410 gone under ServerOptions.DisableLegacy).  The
// registration is driven by routeTable (routes.go), the same table
// that renders docs/api-v1.json; unknown v1 routes and wrong methods
// answer 404/405 in the uniform error envelope {"error": {"code",
// "message"}} carried by every non-2xx response.
//
// Every route is instrumented: wmm_http_requests_total and
// wmm_http_request_seconds, labelled by route pattern (not raw path, so
// run IDs do not explode the cardinality).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		h := rt.handler(s)
		if rt.Legacy {
			h = s.deprecated(rt.Successor, h)
		}
		mux.HandleFunc(rt.Method+" "+rt.Path, h)
	}
	// Method-less catch-all: anything under /api/v1/ the table did not
	// match falls through here instead of Go's plain-text 404/405, so
	// even "no such route" and "wrong method" answer in the error
	// envelope (with an Allow header computed from the table).
	mux.HandleFunc("/api/v1/", s.handleV1Fallback)
	return s.instrument(mux)
}

// statusWriter records the response code for instrumentation while
// passing Flush through to streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with request counting and latency recording,
// labelled by the matched route pattern.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		path := r.Pattern
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = path[i+1:]
		}
		if path == "" {
			path = "unmatched"
		}
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.met.requests.Inc(r.Method, path, strconv.Itoa(code))
		s.met.latency.Observe(time.Since(start).Seconds(), r.Method, path)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// API error codes, the machine-readable half of the uniform error
// envelope {"error": {"code", "message"}} carried by every non-2xx
// response on both the v1 and legacy surfaces.
const (
	ErrCodeInvalidArgument = "invalid_argument" // malformed body, bad spec, bad query
	ErrCodeNotFound        = "not_found"        // unknown run id
	ErrCodeConflict        = "conflict"         // state precludes the request (e.g. canonical of a running run)
	ErrCodeSaturated       = "saturated"        // admission control refused the run (429 + Retry-After)
	ErrCodeUnavailable     = "unavailable"      // shutting down, or the run store is fenced
	ErrCodeLeaseGone       = "lease_gone"       // lease expired or unknown; batch already re-queued

	ErrCodeMethodNotAllowed = "method_not_allowed" // route exists, verb does not (405 + Allow)
	ErrCodeGone             = "gone"               // legacy route sunset by -legacy-routes=off
)

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, client.ErrorEnvelope{Error: client.ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "workers": s.eng.Workers()})
}

// handleReadyz is readiness, distinct from liveness: the process can be
// alive (healthz 200) while unable to take useful work — mid-shutdown,
// or with an unwritable run store.  Load balancers and operators gate
// traffic on this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	out := map[string]any{"engine": "ok", "store": "ok"}
	ready := true
	if closed || s.eng.Closed() {
		ready = false
		out["engine"] = "shutting down"
	}
	if s.store == nil {
		out["store"] = "disabled"
	} else if err := s.store.Ping(); err != nil {
		ready = false
		out["store"] = err.Error()
	}
	// An embedded Server is always the leader; the HA wrapper answers
	// /readyz itself (role "standby") until it promotes and delegates here.
	out["role"] = "leader"
	out["ready"] = ready
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

// pageParams reads the cursor-pagination query (?limit=&after=).  limit
// defaults to 100 and is capped at 1000; after is the exclusive cursor
// (the last item of the previous page).  ok=false means the query was
// malformed and the envelope has been written.
func pageParams(w http.ResponseWriter, r *http.Request) (limit int, after string, ok bool) {
	limit = 100
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "limit must be a positive integer, got %q", raw)
			return 0, "", false
		}
		limit = n
	}
	if limit > 1000 {
		limit = 1000
	}
	return limit, r.URL.Query().Get("after"), true
}

// page is the v1 list envelope of job statuses: one page of items plus
// the cursor for the next page ("" when this page is the last).
type page struct {
	Items     []any  `json:"items"`
	NextAfter string `json:"next_after,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request, legacy bool) {
	all := make([]client.ExperimentInfo, 0, len(experiments.All()))
	for _, e := range experiments.All() {
		all = append(all, client.ExperimentInfo{Name: e.Name, Paper: e.Paper, Desc: e.Desc})
	}
	if legacy {
		writeJSON(w, http.StatusOK, all)
		return
	}
	limit, after, ok := pageParams(w, r)
	if !ok {
		return
	}
	start := 0
	if after != "" {
		for i, e := range all {
			if e.Name == after {
				start = i + 1
				break
			}
		}
	}
	out := client.ExperimentsPage{Items: []client.ExperimentInfo{}}
	end := start + limit
	if end > len(all) {
		end = len(all)
	}
	if start < len(all) {
		out.Items = all[start:end]
	}
	if end < len(all) {
		out.NextAfter = all[end-1].Name
	}
	writeJSON(w, http.StatusOK, out)
}

// TenantHeader carries the tenant on API requests; it wins over the
// spec's tenant field so operators can route through proxies that stamp
// identity without rewriting bodies.
const TenantHeader = "X-WMM-Tenant"

// resolveTenant picks the effective tenant for a submission: header,
// then spec field, then DefaultTenant.  A malformed name is an error.
func resolveTenant(r *http.Request, specTenant string) (string, error) {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = specTenant
	}
	if tenant == "" {
		return DefaultTenant, nil
	}
	if len(tenant) > 64 {
		return "", errors.New("tenant name longer than 64 characters")
	}
	for _, c := range tenant {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", fmt.Errorf("tenant name %q: only [A-Za-z0-9._-] allowed", tenant)
		}
	}
	return tenant, nil
}

// tenantAdmitRunning enforces the per-tenant running-run quota and, when
// admitted, counts the run.  Callers must hold s.mu.
func (s *Server) tenantAdmitRunningLocked(tenant string) bool {
	if s.tenantMaxRunning > 0 && s.tenantRunning[tenant] >= s.tenantMaxRunning {
		return false
	}
	s.tenantRunningAddLocked(tenant, 1)
	return true
}

func (s *Server) tenantRunningAddLocked(tenant string, d int) {
	n := s.tenantRunning[tenant] + d
	if n <= 0 {
		n = 0
		delete(s.tenantRunning, tenant)
	} else {
		s.tenantRunning[tenant] = n
	}
	s.met.tenantRuns.Set(float64(n), tenant)
}

func (s *Server) tenantRunningDone(tenant string) {
	s.mu.Lock()
	s.tenantRunningAddLocked(tenant, -1)
	s.mu.Unlock()
}

// writeSaturated is the shared 429 envelope for queue and quota
// refusals: Retry-After plus the standard error body.
func (s *Server) writeSaturated(w http.ResponseWriter, format string, args ...any) {
	retry := max(1, int(s.disp.RetryAfter().Seconds()))
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	args = append(args, retry)
	writeErr(w, http.StatusTooManyRequests, ErrCodeSaturated, format+"; retry after %ds", args...)
}

// runJob is the run kind's half of a job: a sweep of experiments, one
// cell each.
type runJob struct {
	spec    client.RunSpec
	running map[string]bool
	results []*Result // completed experiments, in completion order
}

// parseRun is the run kind's submission: a RunSpec, validated and
// normalised (?nocache=1, the default parallelism, the effective tenant).
func (s *Server) parseRun(r *http.Request) (jobBody, jobHeader, error) {
	var spec client.RunSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		return nil, jobHeader{}, fmt.Errorf("bad run spec: %v", err)
	}
	if spec.Samples < 0 || spec.Seed < 0 || spec.Parallel < 0 || spec.TimeoutMs < 0 {
		return nil, jobHeader{}, errors.New("bad run spec: samples, seed, parallel and timeout_ms must be >= 0")
	}
	for _, name := range spec.Experiments {
		if _, err := experiments.ByName(name); err != nil {
			return nil, jobHeader{}, err
		}
	}
	if spec.Adaptive != nil {
		if err := stopRule(spec.Adaptive).Validate(); err != nil {
			return nil, jobHeader{}, fmt.Errorf("bad adaptive spec: %v", err)
		}
	}
	// ?nocache=1 is the per-request escape hatch: rerun even when an
	// identical result is cached (e.g. to re-validate determinism).
	if v := r.URL.Query().Get("nocache"); v == "1" || v == "true" {
		spec.NoCache = true
	}
	if spec.Parallel <= 0 {
		spec.Parallel = s.defaultParallel
	}
	tenant, err := resolveTenant(r, spec.Tenant)
	if err != nil {
		return nil, jobHeader{}, err
	}
	spec.Tenant = tenant // persist and echo the effective tenant
	return newRunJob(spec)
}

// newRunJob builds a run from its normalised spec.
func newRunJob(spec client.RunSpec) (jobBody, jobHeader, error) {
	return &runJob{spec: spec, running: map[string]bool{}},
		jobHeader{tenant: spec.Tenant, total: len(specOrder(spec)), parallel: spec.Parallel, timeoutMs: spec.TimeoutMs, spec: spec}, nil
}

// drive runs the spec's experiments, one cell each, returning their
// results in request order.
func (b *runJob) drive(ctx context.Context, j *serverJob) ([]*Result, error) {
	var cells []Cell
	for _, name := range specOrder(b.spec) {
		c := experimentCell{Experiment: name, Samples: b.spec.Samples, Seed: b.spec.Seed,
			Short: b.spec.Short, Adaptive: b.spec.Adaptive}
		key := ""
		if !b.spec.NoCache {
			key = ResultKey(name, c.options())
		}
		cells = append(cells, newCell(name, key, "run", c))
	}
	return j.dispatch(ctx, cells)
}

func (b *runJob) started(name string) *client.Event {
	b.running[name] = true
	return &client.Event{Event: "started", Experiment: name}
}

func (b *runJob) done(res *Result) *client.Event {
	delete(b.running, res.Experiment)
	b.results = append(b.results, res)
	return &client.Event{Event: "done", Experiment: res.Experiment, Error: res.Err,
		WallMs: res.WallNs / int64(time.Millisecond)}
}

func (b *runJob) status(j *serverJob, v statusView) any {
	st := RunStatus{
		ID:        j.id,
		Kind:      "run",
		State:     j.state,
		Tenant:    b.spec.Tenant,
		Spec:      b.spec,
		Total:     j.hdr.total,
		Completed: j.completed,
		Resumed:   j.resumed,
		Error:     j.err,
		StartedAt: j.started,
	}
	st.FinishedAt, st.WallMs = j.timing()
	for name := range b.running {
		st.Running = append(st.Running, name)
	}
	st.Results, st.Measurements, st.Samples = j.shownResults(b.results, v)
	return st
}

func (b *runJob) canonical(j *serverJob) ([]byte, error) {
	if j.final != nil {
		return CanonicalRunJSON(j.final)
	}
	return CanonicalRunJSON(b.results)
}

// checkpoint durably records a completed cell of a job.  Results of any
// status are written (so a restored finished job is complete), but only
// StatusOK checkpoints are reused on resume — failed and cancelled cells
// get a fresh attempt.  Store failures degrade durability, never the
// job.
func (s *Server) checkpoint(id string, res *Result) {
	raw, err := json.Marshal(res)
	if err == nil {
		err = s.store.Checkpoint(id, res.Experiment, raw)
	}
	if err != nil {
		s.storeFailed("checkpoint", err)
		return
	}
	s.met.checkpoints.Inc()
}

// --- Worker lease protocol (sharded execution backend) -------------------
//
// Remote wmmworker processes pull cells through three endpoints, whose
// bodies are wmm/client's types:
//
//	POST /api/v1/leases                  client.LeaseRequest
//	  -> client.LeaseGrant {"lease_id", "ttl_ms", "jobs": [client.Job...]}
//	     (lease_id empty and jobs [] when the queue has no work)
//	POST /api/v1/leases/{id}/heartbeat   -> client.HeartbeatReply {"ttl_ms"}; 410 if gone
//	POST /api/v1/leases/{id}/results     client.ResultsUpload
//	  -> client.UploadAck; 410 if the lease expired (its jobs were
//	  re-queued; the worker drops the batch)
//
// Every kind's cell travels in the same client.Job: the job it belongs
// to, its name, and its kind's self-contained descriptor — an
// experiment's (samples, seed, short, adaptive), a litmus shard's
// generator range, an optimizer cell's spec — from which Engine.RunCell
// reproduces the exact bytes a local execution would have produced.  An
// uploaded client.JobResult carries that Result as raw JSON, which is
// decoded here into the engine's own type.

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req client.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad lease request: %v", err)
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "lease request must name its worker")
		return
	}
	id, ttl, jobs := s.disp.Lease(req.Worker, req.MaxJobs)
	grant := client.LeaseGrant{LeaseID: id, TTLMs: ttl.Milliseconds(), Jobs: []client.Job{}}
	for _, j := range jobs {
		grant.Jobs = append(grant.Jobs, client.Job{RunID: j.runID, Experiment: j.cell.Name, Kind: j.cell.Kind, Cell: j.cell.Desc})
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ttl, ok := s.disp.Heartbeat(id)
	if !ok {
		writeErr(w, http.StatusGone, ErrCodeLeaseGone, "lease %q expired or unknown; its jobs were re-queued", id)
		return
	}
	writeJSON(w, http.StatusOK, client.HeartbeatReply{TTLMs: ttl.Milliseconds()})
}

func (s *Server) handleLeaseResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req client.ResultsUpload
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "bad results upload: %v", err)
		return
	}
	completed := make([]CompletedJob, 0, len(req.Results))
	for _, jr := range req.Results {
		var res Result
		if err := json.Unmarshal(jr.Result, &res); err != nil {
			// An undecodable result is treated as not uploaded: the job
			// is re-queued rather than delivered corrupt.
			continue
		}
		completed = append(completed, CompletedJob{RunID: jr.RunID, Experiment: jr.Experiment, Res: &res})
	}
	accepted, requeued, ok := s.disp.Complete(id, completed)
	if !ok {
		writeErr(w, http.StatusGone, ErrCodeLeaseGone, "lease %q expired or unknown; its jobs were re-queued", id)
		return
	}
	writeJSON(w, http.StatusOK, client.UploadAck{Accepted: accepted, Requeued: requeued})
}
