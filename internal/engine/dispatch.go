package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// ErrSaturated is returned when the dispatch queue cannot admit a new
// run's jobs.  The server maps it to 429 with a Retry-After hint.
var ErrSaturated = errors.New("dispatch queue saturated")

// ErrTenantSaturated is returned when a run's jobs would exceed its
// tenant's queued-jobs quota while the global queue still has room.
// The server maps it to the same 429 envelope as ErrSaturated.
var ErrTenantSaturated = errors.New("tenant queue quota exceeded")

// DefaultTenant is the tenant a request without an X-WMM-Tenant header
// or spec field belongs to.  Pre-tenancy clients all land here, which
// keeps their behaviour identical to the single-queue era.
const DefaultTenant = "default"

// DispatchOptions configures the sharded execution backend: a queue of
// cells — experiment jobs, litmus shards, optimizer cells — served by
// local executor slots and by remote wmmworker processes leasing
// batches over HTTP.
type DispatchOptions struct {
	// LocalSlots is the number of local executor goroutines pulling from
	// the shared queue.  0 means the server's default experiment
	// parallelism; -1 disables local execution entirely (every job must
	// be leased by a remote worker).
	LocalSlots int
	// LeaseTTL is how long a granted lease stays valid between
	// heartbeats.  A lease not renewed within the TTL expires and its
	// unfinished jobs are re-queued.  Default 15s.
	LeaseTTL time.Duration
	// MaxBatch bounds the jobs handed out per lease.  Default 4.
	MaxBatch int
	// MaxQueue bounds the jobs admitted but not yet finished (queued,
	// leased, or executing locally).  A run whose jobs would exceed it
	// is refused with ErrSaturated.  Default 1024.
	MaxQueue int
	// RetryAfter is the backpressure hint attached to saturation
	// refusals.  Default 2s.
	RetryAfter time.Duration
	// SweepEvery is the lease-expiry reaper interval; LeaseTTL/4
	// clamped to [10ms, 5s] if 0.
	SweepEvery time.Duration
	// TenantMaxQueued bounds one tenant's admitted-but-unfinished jobs;
	// a run that would exceed it is refused with ErrTenantSaturated.
	// 0 means only the global MaxQueue applies.
	TenantMaxQueued int
	// TenantWeights sets per-tenant fair-share weights for the
	// weighted round-robin dequeue (default weight 1).  A tenant with
	// weight 2 gets two dequeues per rotation where the others get one.
	TenantWeights map[string]int
	// OnAssign, when non-nil, observes every remote assignment (a cell
	// handed to a worker under a lease).  The server uses it to count
	// assignments and to write assignment records to its run store.
	OnAssign func(runID, experiment, worker string)
	// Cache, when non-nil, is consulted before every keyed cell is
	// enqueued: an identical cell (by content hash — see ResultKey and
	// OptimizeCellKey) that already completed is served from the cache,
	// and identical cells in flight are merged single-flight so
	// overlapping jobs execute each distinct cell once.  Cells without a
	// key (litmus shards) are never cached.
	Cache *resultcache.Cache
}

// withDefaults fills the zero values in.
func (o DispatchOptions) withDefaults(defaultSlots int) DispatchOptions {
	if o.LocalSlots == 0 {
		o.LocalSlots = defaultSlots
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Second
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = o.LeaseTTL / 4
		if o.SweepEvery < 10*time.Millisecond {
			o.SweepEvery = 10 * time.Millisecond
		}
		if o.SweepEvery > 5*time.Second {
			o.SweepEvery = 5 * time.Second
		}
	}
	return o
}

// dispatchJob is one cell flowing through the shared queue.  Its
// lifecycle is enqueue → (local pickup | lease) → finish, with lease
// expiry pushing it back to enqueue.  All mutable fields are guarded by
// the dispatcher's mutex; finish-exactly-once is enforced by the done
// flag, so a late result upload for a job that was already re-executed
// (or cancelled) is dropped instead of delivered twice.
type dispatchJob struct {
	runID  string
	tenant string
	cell   Cell
	ctx    context.Context

	sink    Sink              // progress relay; ExperimentStarted fires once
	deliver func(res *Result) // resolves the job's waiter; called once

	done         bool
	startedFired bool
	semHeld      bool // holds one of its job's parallel slots
	sem          chan struct{}

	// cacheLead marks the job as its key's single-flight leader: its
	// finish must settle the key (Fulfill on success, Abandon otherwise)
	// because followers are parked on it.
	cacheLead bool
}

// lease is one outstanding grant to a remote worker.
type lease struct {
	id      string
	worker  string
	jobs    []*dispatchJob
	expires time.Time
}

// dispatchMetrics are the dispatcher's instruments.
type dispatchMetrics struct {
	queueDepth    *metrics.Gauge   // jobs waiting for an executor
	inflight      *metrics.Gauge   // jobs admitted, not yet finished
	jobsDone      *metrics.Counter // jobs finished, by mode
	leasesGranted *metrics.Counter
	leasesExpired *metrics.Counter
	leasesActive  *metrics.Gauge
	requeues      *metrics.Counter // jobs returned to the queue from lost leases
	rejected      *metrics.Counter // run submissions refused by admission control

	tenantDepth    *metrics.Gauge   // queued jobs, by tenant
	tenantInflight *metrics.Gauge   // admitted-not-finished jobs, by tenant
	tenantDone     *metrics.Counter // finished jobs, by tenant
	tenantRejected *metrics.Counter // refused submissions, by tenant and reason (the server counts tenant_running)
}

func newDispatchMetrics(r *metrics.Registry) *dispatchMetrics {
	return &dispatchMetrics{
		queueDepth:    r.Gauge("wmm_dispatch_queue_depth", "Experiment jobs waiting for a local slot or worker lease."),
		inflight:      r.Gauge("wmm_dispatch_jobs_inflight", "Experiment jobs admitted and not yet finished (queued, leased, or executing)."),
		jobsDone:      r.Counter("wmm_dispatch_jobs_completed_total", "Experiment jobs finished, by execution mode.", "mode"),
		leasesGranted: r.Counter("wmm_dispatch_leases_granted_total", "Job leases granted to workers."),
		leasesExpired: r.Counter("wmm_dispatch_leases_expired_total", "Leases that expired without completing; their jobs were re-queued."),
		leasesActive:  r.Gauge("wmm_dispatch_leases_active", "Leases currently outstanding."),
		requeues:      r.Counter("wmm_dispatch_requeues_total", "Jobs re-queued from expired or partially completed leases."),
		rejected:      r.Counter("wmm_dispatch_rejected_total", "Run submissions refused by admission control (429)."),

		tenantDepth:    r.Gauge("wmm_tenant_queue_depth", "Experiment jobs waiting in a tenant's fair-share queue.", "tenant"),
		tenantInflight: r.Gauge("wmm_tenant_jobs_inflight", "Experiment jobs admitted for a tenant and not yet finished.", "tenant"),
		tenantDone:     r.Counter("wmm_tenant_jobs_completed_total", "Experiment jobs finished, by tenant.", "tenant"),
		tenantRejected: r.Counter("wmm_tenant_rejected_total", "Submissions refused by admission control, by tenant and reason.", "tenant", "reason"),
	}
}

// tenantQueue is one tenant's slice of the shared dispatch queue.
type tenantQueue struct {
	jobs     []*dispatchJob
	credits  int // dequeues left in the current fair-share rotation
	admitted int // jobs admitted for this tenant, not yet finished
}

// Dispatcher shards jobs' cells across local executor slots and remote
// workers leasing batches over HTTP.  Because every cell is fully
// determined by its descriptor — positional seed derivation all the way
// down — it does not matter which process executes a cell, how often it
// is re-executed after a lost lease, or in what order cells complete:
// the assembled job is byte-identical to a purely local one.
// Queued jobs live in per-tenant queues drained by a credit-based
// weighted round-robin, so one tenant flooding the queue delays its own
// later jobs, not other tenants' — a saturating tenant cannot starve a
// light one.  Within a tenant the order stays FIFO with lost-lease
// requeues at the front, exactly as the old single queue behaved.
type Dispatcher struct {
	eng *Engine
	opt DispatchOptions
	met *dispatchMetrics

	mu       sync.Mutex
	queues   map[string]*tenantQueue
	rr       []string // round-robin rotation over tenants with queues
	rrNext   int
	queued   int // total jobs across all tenant queues
	leases   map[string]*lease
	leaseSeq int
	admitted int // jobs admitted, not yet finished

	notify   chan struct{} // wakes one blocked local slot
	stop     chan struct{}
	stopOnce sync.Once
	slots    sync.WaitGroup // local slots that have not returned
}

// NewDispatcher starts a dispatcher over the engine.  defaultSlots is
// the local-slot count used when the options leave LocalSlots zero.
func NewDispatcher(eng *Engine, o DispatchOptions, defaultSlots int) *Dispatcher {
	o = o.withDefaults(defaultSlots)
	d := &Dispatcher{
		eng:    eng,
		opt:    o,
		met:    newDispatchMetrics(eng.Metrics()),
		queues: map[string]*tenantQueue{},
		leases: map[string]*lease{},
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	for i := 0; i < o.LocalSlots; i++ {
		d.slots.Add(1)
		go d.localSlot()
	}
	go d.reaper()
	return d
}

// Close stops the local slots and the lease reaper.  In-flight local
// executions finish on their own (their run contexts bound them), and a
// slot returns once its cell does; call Close only after every run has
// been cancelled or completed, then wait on d.slots before closing the
// engine the slots execute on.
func (d *Dispatcher) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
}

// RetryAfter is the backpressure hint for saturation refusals.
func (d *Dispatcher) RetryAfter() time.Duration { return d.opt.RetryAfter }

// weight returns a tenant's fair-share weight (>= 1).
func (d *Dispatcher) weight(tenant string) int {
	if w := d.opt.TenantWeights[tenant]; w > 1 {
		return w
	}
	return 1
}

// tenantLocked returns the tenant's queue, creating it — and entering
// the tenant into the round-robin rotation — on first use.
func (d *Dispatcher) tenantLocked(tenant string) *tenantQueue {
	q := d.queues[tenant]
	if q == nil {
		q = &tenantQueue{credits: d.weight(tenant)}
		d.queues[tenant] = q
		d.rr = append(d.rr, tenant)
	}
	return q
}

// dropTenantLocked retires an idle tenant (nothing queued, nothing
// admitted) from the rotation so the map tracks active tenants only.
func (d *Dispatcher) dropTenantLocked(tenant string) {
	q := d.queues[tenant]
	if q == nil || q.admitted > 0 || len(q.jobs) > 0 {
		return
	}
	delete(d.queues, tenant)
	for i, name := range d.rr {
		if name == tenant {
			d.rr = append(d.rr[:i], d.rr[i+1:]...)
			if d.rrNext > i {
				d.rrNext--
			}
			break
		}
	}
	if d.rrNext >= len(d.rr) {
		d.rrNext = 0
	}
}

// TryAdmit reserves queue capacity for n of the tenant's jobs, refusing
// with ErrSaturated when the global queue is full and ErrTenantSaturated
// when the tenant's own quota is.  The reservation is released job by
// job as they finish.
func (d *Dispatcher) TryAdmit(tenant string, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.admitted+n > d.opt.MaxQueue {
		d.met.rejected.Inc()
		d.met.tenantRejected.Inc(tenant, "queue_full")
		return ErrSaturated
	}
	q := d.tenantLocked(tenant)
	if d.opt.TenantMaxQueued > 0 && q.admitted+n > d.opt.TenantMaxQueued {
		d.met.rejected.Inc()
		d.met.tenantRejected.Inc(tenant, "tenant_quota")
		d.dropTenantLocked(tenant)
		return ErrTenantSaturated
	}
	d.admitted += n
	q.admitted += n
	d.met.inflight.Set(float64(d.admitted))
	d.met.tenantInflight.Set(float64(q.admitted), tenant)
	return nil
}

// admitForce reserves capacity unconditionally (resumed jobs must never
// be refused; a brief overshoot beats losing checkpointed work).  n may
// be negative to release an over-reservation.
func (d *Dispatcher) admitForce(tenant string, n int) {
	d.mu.Lock()
	d.admitted += n
	q := d.tenantLocked(tenant)
	q.admitted += n
	if q.admitted < 0 {
		q.admitted = 0
	}
	d.met.inflight.Set(float64(d.admitted))
	d.met.tenantInflight.Set(float64(q.admitted), tenant)
	d.dropTenantLocked(tenant)
	d.mu.Unlock()
}

// Run fans one wave of a job's cells across the queue and returns their
// results in cell order.  Each cell resolves exactly once — from a local
// slot, a leased worker or the result cache — however often a lost
// lease re-queues it.  reserved is how many cells the caller already
// admitted via TryAdmit (0 for resumed jobs and later waves, which
// bypass admission).  tenant names the fair-share queue the cells join
// ("" = "default"), and at most parallel of them are in flight across
// the whole fleet at once.
func (d *Dispatcher) Run(ctx context.Context, runID, tenant string, cells []Cell, parallel int, sink Sink, reserved int) []*Result {
	if tenant == "" {
		tenant = DefaultTenant
	}
	sem := make(chan struct{}, min(max(parallel, 1), len(cells)))

	// Build every job up front so the cancellation watcher sees the full
	// set even while the enqueue loop is still throttling.
	results := make([]*Result, len(cells))
	var wg sync.WaitGroup
	wg.Add(len(cells))
	jobs := make([]*dispatchJob, len(cells))
	for i, c := range cells {
		jobs[i] = &dispatchJob{runID: runID, tenant: tenant, cell: c, ctx: ctx, sink: sink, sem: sem,
			deliver: func(res *Result) {
				results[i] = res
				sink.ExperimentDone(res)
				wg.Done()
			}}
	}
	// Reconcile the caller's reservation with the cells actually queued.
	d.admitForce(tenant, len(jobs)-reserved)

	// The watcher resolves every unfinished job the moment the run's
	// context ends: queued jobs are withdrawn, leased jobs are written
	// off (a late upload is dropped by the done guard), and locally
	// executing jobs are aborted by the context itself — their eventual
	// finish is then a no-op under the finish-once guard.  The caller's
	// context always ends, at the latest when the job it belongs to
	// finishes, which stops the watcher.
	go func() {
		<-ctx.Done()
		d.cancelJobs(jobs, ctx.Err())
	}()

	// Enqueue under the run's parallelism budget.  Cache-resolved jobs
	// (hits and single-flight followers) consume no slot — only jobs that
	// will actually execute are throttled.
	for _, j := range jobs {
		if d.consultCache(j) {
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			// The watcher resolves this job and the rest.
			continue
		}
		if !d.push(j) {
			// Already resolved (cancelled) before it could be queued;
			// return the unused slot.
			<-sem
		}
	}
	wg.Wait()
	return results
}

// consultCache resolves a job against the result cache before it is
// enqueued, reporting true when the job needs no executor: it was served
// from a cache layer (finished immediately, with provenance recorded) or
// it is now following an identical in-flight job and will be resolved
// when that job's leader settles.  False means the job must execute —
// either the cache is not in play, or the job was appointed its key's
// single-flight leader.
func (d *Dispatcher) consultCache(j *dispatchJob) bool {
	c := d.opt.Cache
	if c == nil || j.cell.Key == "" {
		return false
	}
	data, src, state := c.Acquire(j.cell.Key, func(data []byte, ok bool) {
		d.onLeaderSettled(j, data, ok)
	})
	switch state {
	case resultcache.Hit:
		if res := decodeCachedResult(data, j.cell.Name); res != nil {
			res.Cache = src
			d.fireStarted(j)
			d.finish(j, res, "cache")
			return true
		}
		// Poisoned entry: the bytes do not decode to this experiment's
		// result (e.g. a corrupted persisted file).  Drop it and lead a
		// fresh execution — the Fulfill on success overwrites both layers
		// with good bytes, so the cache self-heals.
		c.Delete(j.cell.Key)
		j.cacheLead = true
		return false
	case resultcache.Leader:
		j.cacheLead = true
		return false
	default: // resultcache.Following
		return true
	}
}

// onLeaderSettled is the single-flight follower callback: the identical
// job's leader has settled its key.  On success the leader's result is
// delivered here with singleflight provenance; on failure (or a value
// that does not decode) the job falls back to its own execution,
// re-entering the enqueue path off the leader's goroutine.
func (d *Dispatcher) onLeaderSettled(j *dispatchJob, data []byte, ok bool) {
	if ok {
		if res := decodeCachedResult(data, j.cell.Name); res != nil {
			res.Cache = resultcache.SourceSingleflight
			d.fireStarted(j)
			d.finish(j, res, "cache")
			return
		}
	}
	go func() {
		select {
		case j.sem <- struct{}{}:
			// Lead the key ourselves now so a successful fallback still
			// populates the cache (Fulfill without registered followers
			// just commits the value).
			j.cacheLead = true
			if !d.push(j) {
				<-j.sem
			}
		case <-j.ctx.Done():
			// The run's cancellation watcher resolves the job.
		}
	}()
}

// decodeCachedResult decodes a cached value, returning nil unless it is
// a well-formed result for the expected experiment (the poisoning guard:
// content hashes include the engine version, but the decode check keeps
// even a corrupted or mis-keyed entry from being delivered as a result).
func decodeCachedResult(data []byte, name string) *Result {
	var res Result
	if err := json.Unmarshal(data, &res); err != nil || res.Experiment != name {
		return nil
	}
	return &res
}

// push appends a job to its tenant's queue, reporting false if the job
// was already finished (cancelled before enqueue).  Marks the job as
// holding one of its run's parallel slots.
func (d *Dispatcher) push(j *dispatchJob) bool {
	d.mu.Lock()
	if j.done {
		d.mu.Unlock()
		return false
	}
	j.semHeld = true
	q := d.tenantLocked(j.tenant)
	q.jobs = append(q.jobs, j)
	d.queued++
	d.met.queueDepth.Set(float64(d.queued))
	d.met.tenantDepth.Set(float64(len(q.jobs)), j.tenant)
	d.mu.Unlock()
	d.wake()
	return true
}

// requeue returns lost-lease jobs to the front of their tenants' queues
// so they are retried before newer work.
func (d *Dispatcher) requeue(jobs []*dispatchJob) int {
	d.mu.Lock()
	n := 0
	for _, j := range jobs {
		if j.done {
			continue
		}
		q := d.tenantLocked(j.tenant)
		q.jobs = append([]*dispatchJob{j}, q.jobs...)
		d.queued++
		d.met.tenantDepth.Set(float64(len(q.jobs)), j.tenant)
		n++
	}
	if n > 0 {
		d.met.queueDepth.Set(float64(d.queued))
		d.met.requeues.Add(float64(n))
	}
	d.mu.Unlock()
	if n > 0 {
		d.wake()
	}
	return n
}

// wake nudges one blocked local slot.
func (d *Dispatcher) wake() {
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// popLocked removes the next job under weighted round-robin: the
// rotation visits tenants in arrival order, each tenant spending one
// fair-share credit per dequeue; when every tenant with queued work is
// out of credits, all credits replenish to the tenants' weights and the
// rotation starts a new round.  Jobs already resolved (cancelled while
// queued) are returned like any other and skipped by the caller.
func (d *Dispatcher) popLocked() *dispatchJob {
	if d.queued == 0 {
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		n := len(d.rr)
		for i := 0; i < n; i++ {
			idx := (d.rrNext + i) % n
			q := d.queues[d.rr[idx]]
			if len(q.jobs) == 0 || q.credits <= 0 {
				continue
			}
			j := q.jobs[0]
			q.jobs = q.jobs[1:]
			q.credits--
			d.queued--
			d.met.tenantDepth.Set(float64(len(q.jobs)), d.rr[idx])
			if q.credits > 0 && len(q.jobs) > 0 {
				d.rrNext = idx // tenant may spend its remaining credits
			} else {
				d.rrNext = (idx + 1) % n
			}
			return j
		}
		// Work is queued but every tenant holding it is out of credits:
		// replenish and take a second pass.
		for _, name := range d.rr {
			d.queues[name].credits = d.weight(name)
		}
	}
	return nil
}

// pop removes the next live job, or nil if the queues are empty.
func (d *Dispatcher) pop() *dispatchJob {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		j := d.popLocked()
		if j == nil {
			d.met.queueDepth.Set(float64(d.queued))
			return nil
		}
		if j.done {
			continue
		}
		d.met.queueDepth.Set(float64(d.queued))
		return j
	}
}

// localSlot is one local executor: it pulls jobs from the shared queue
// and runs them on the engine, exactly as a remote worker would in its
// own process.
func (d *Dispatcher) localSlot() {
	defer d.slots.Done()
	for {
		j := d.pop()
		if j == nil {
			select {
			case <-d.notify:
				continue
			case <-d.stop:
				return
			}
		}
		d.execute(j)
	}
}

// execute runs one job locally and finishes it.
func (d *Dispatcher) execute(j *dispatchJob) {
	d.fireStarted(j)
	var res *Result
	if err := j.ctx.Err(); err != nil {
		res = d.cancelledResult(j, err)
	} else {
		var rerr error
		if res, rerr = d.eng.RunCell(j.ctx, j.cell.Kind, j.cell.Desc); rerr != nil {
			// A malformed cell — validated at submission, so this is
			// defensive; surface it as a failed result.
			res = &Result{Experiment: j.cell.Name, Status: StatusFailed, Err: rerr.Error()}
		}
	}
	d.finish(j, res, "local")
}

// fireStarted relays ExperimentStarted exactly once per job, however
// many times the job is handed out after lost leases.
func (d *Dispatcher) fireStarted(j *dispatchJob) {
	d.mu.Lock()
	fire := !j.startedFired && !j.done
	j.startedFired = true
	d.mu.Unlock()
	if fire {
		j.sink.ExperimentStarted(j.cell.Name)
	}
}

// finish resolves a job exactly once, releasing its run-parallelism
// slot and its admission reservation.  Late duplicates (an upload after
// the lease expired and the job re-ran, or a local execution racing the
// cancellation watcher) are dropped.
func (d *Dispatcher) finish(j *dispatchJob, res *Result, mode string) bool {
	d.mu.Lock()
	if j.done {
		d.mu.Unlock()
		return false
	}
	j.done = true
	semHeld := j.semHeld
	d.admitted--
	d.met.inflight.Set(float64(d.admitted))
	if q := d.queues[j.tenant]; q != nil {
		q.admitted--
		if q.admitted < 0 {
			q.admitted = 0
		}
		d.met.tenantInflight.Set(float64(q.admitted), j.tenant)
		d.dropTenantLocked(j.tenant)
	}
	d.met.tenantDone.Inc(j.tenant)
	d.mu.Unlock()
	d.settleCache(j, res, mode)
	d.met.jobsDone.Inc(mode)
	if semHeld {
		<-j.sem
	}
	j.deliver(res)
	return true
}

// settleCache settles a single-flight key led by this job: a successful
// execution is committed (unparking followers with the value), anything
// else — failure, cancellation, write-off — abandons the key so
// followers arrange their own execution and the next requester retries.
func (d *Dispatcher) settleCache(j *dispatchJob, res *Result, mode string) {
	c := d.opt.Cache
	if c == nil || !j.cacheLead {
		return
	}
	if mode != "cancelled" && res != nil && res.Status == StatusOK && res.Cache == "" {
		if data, err := json.Marshal(res); err == nil {
			c.Fulfill(j.cell.Key, data)
			return
		}
	}
	c.Abandon(j.cell.Key)
}

// cancelJobs resolves every unfinished job of a run whose context
// ended, withdrawing queued ones so they are never handed out.
func (d *Dispatcher) cancelJobs(jobs []*dispatchJob, cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	d.mu.Lock()
	doomed := map[*dispatchJob]bool{}
	for _, j := range jobs {
		if !j.done {
			doomed[j] = true
		}
	}
	for tenant, q := range d.queues {
		live := q.jobs[:0]
		for _, p := range q.jobs {
			if !doomed[p] {
				live = append(live, p)
			} else {
				d.queued--
			}
		}
		q.jobs = live
		d.met.tenantDepth.Set(float64(len(q.jobs)), tenant)
	}
	d.met.queueDepth.Set(float64(d.queued))
	d.mu.Unlock()
	for _, j := range jobs {
		d.finish(j, d.cancelledResult(j, cause), "cancelled")
	}
}

// cancelledResult synthesizes the result of a job written off by
// cancellation, mirroring what runOne produces for a cancelled driver.
func (d *Dispatcher) cancelledResult(j *dispatchJob, cause error) *Result {
	r := &Result{Experiment: j.cell.Name, Status: StatusCancelled, Err: cause.Error()}
	if ex, err := experiments.ByName(j.cell.Name); err == nil {
		r.Paper, r.Desc = ex.Paper, ex.Desc
	}
	return r
}

// Lease hands out up to max queued jobs (bounded by MaxBatch) under a
// new lease for the worker.  An empty grant (no lease created) means
// the queue had no work; workers poll again after their idle interval.
func (d *Dispatcher) Lease(worker string, max int) (id string, ttl time.Duration, jobs []*dispatchJob) {
	if max <= 0 || max > d.opt.MaxBatch {
		max = d.opt.MaxBatch
	}
	var granted []*dispatchJob
	d.mu.Lock()
	// Batches draw through the same weighted round-robin as local slots,
	// so remote capacity is fair-shared exactly like local capacity.
	for len(granted) < max {
		j := d.popLocked()
		if j == nil {
			break
		}
		if j.done {
			continue
		}
		granted = append(granted, j)
	}
	d.met.queueDepth.Set(float64(d.queued))
	if len(granted) == 0 {
		d.mu.Unlock()
		return "", 0, nil
	}
	d.leaseSeq++
	id = fmt.Sprintf("lease-%d", d.leaseSeq)
	d.leases[id] = &lease{id: id, worker: worker, jobs: granted, expires: time.Now().Add(d.opt.LeaseTTL)}
	d.met.leasesActive.Set(float64(len(d.leases)))
	d.mu.Unlock()
	d.met.leasesGranted.Inc()

	for _, j := range granted {
		d.fireStarted(j)
		if d.opt.OnAssign != nil {
			d.opt.OnAssign(j.runID, j.cell.Name, worker)
		}
	}
	return id, d.opt.LeaseTTL, granted
}

// Heartbeat renews a lease, reporting false if it is unknown or already
// expired — the worker should abandon the batch (its jobs have been
// re-queued).
func (d *Dispatcher) Heartbeat(id string) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[id]
	if !ok {
		return 0, false
	}
	l.expires = time.Now().Add(d.opt.LeaseTTL)
	return d.opt.LeaseTTL, true
}

// CompletedJob is one uploaded result, matched against a lease's jobs
// by (run, experiment).
type CompletedJob struct {
	RunID      string
	Experiment string
	Res        *Result
}

// Complete settles a lease with the worker's uploaded results.  Jobs
// the upload does not cover are re-queued; unmatched uploads are
// ignored.  ok=false means the lease is unknown (expired and reaped) —
// its jobs were already re-queued and any duplicate execution is
// absorbed by the finish-once guard, so the worker just drops the
// batch.
func (d *Dispatcher) Complete(id string, uploaded []CompletedJob) (accepted, requeued int, ok bool) {
	d.mu.Lock()
	l, found := d.leases[id]
	if !found {
		d.mu.Unlock()
		return 0, 0, false
	}
	delete(d.leases, id)
	d.met.leasesActive.Set(float64(len(d.leases)))
	jobs := l.jobs
	d.mu.Unlock()

	byKey := map[string]*CompletedJob{}
	for i := range uploaded {
		u := &uploaded[i]
		byKey[u.RunID+"\x00"+u.Experiment] = u
	}
	var missing []*dispatchJob
	for _, j := range jobs {
		if u := byKey[j.runID+"\x00"+j.cell.Name]; u != nil && u.Res != nil {
			if d.finish(j, u.Res, "remote") {
				accepted++
			}
			continue
		}
		missing = append(missing, j)
	}
	requeued = d.requeue(missing)
	return accepted, requeued, true
}

// reaper expires leases whose heartbeats stopped, re-queuing their
// unfinished jobs so lost workers never lose work.
func (d *Dispatcher) reaper() {
	t := time.NewTicker(d.opt.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.expire(time.Now())
		case <-d.stop:
			return
		}
	}
}

// expire reaps leases past their TTL, returning how many expired.
func (d *Dispatcher) expire(now time.Time) int {
	d.mu.Lock()
	var dead []*lease
	for id, l := range d.leases {
		if now.After(l.expires) {
			dead = append(dead, l)
			delete(d.leases, id)
		}
	}
	if len(dead) > 0 {
		d.met.leasesActive.Set(float64(len(d.leases)))
	}
	d.mu.Unlock()
	for _, l := range dead {
		d.met.leasesExpired.Inc()
		d.requeue(l.jobs)
	}
	return len(dead)
}
