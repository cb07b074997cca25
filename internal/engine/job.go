package engine

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/wmm/client"
)

// Every v1 job — an experiment run, a litmus campaign, an optimizer job
// — lives through one kernel: a submission is decoded, given its
// tenant, admitted, armed with its timeout and a <kind>-N ID; its cells
// run through the dispatcher; it ends in a terminal state; and it is
// listed, served, cancelled or removed, swept by retention and
// cancelled at shutdown the same way whatever its kind.  On a server
// with a run store every job also writes the same records (spec, a
// checkpoint per cell, assignments, end), and Restore rebuilds any job
// from them.  A kind supplies only what differs (jobBody): how its cells
// are cut and driven, how a finished cell folds into progress, and its
// status and canonical bodies.

// jobKind is one family of jobs.  A Server holds one per family.
type jobKind struct {
	name string // "run", "litmus" or "optimize": the status kind and ID prefix
	noun string // how messages name one job
	unit string // what an admission refusal counts
	// parse decodes and validates a submission; build makes a job from
	// the normalised spec a store record holds (see rebuild).
	parse func(r *http.Request) (jobBody, jobHeader, error)
	build func(spec json.RawMessage) (jobBody, jobHeader, error)
	// streams serves GET ?stream=1 NDJSON progress.
	streams bool

	ended  *metrics.Counter // lifecycle transitions, by state
	swept  *metrics.Counter // finished jobs removed by retention or DELETE
	active *metrics.Gauge   // executing jobs; nil when the kind exports none
	kept   *metrics.Gauge   // jobs held in memory; nil when the kind exports none

	seq  int                   // last ID issued; guarded by Server.mu
	jobs map[string]*serverJob // by ID; guarded by Server.mu
}

func (k *jobKind) setActive(delta float64) {
	if k.active != nil {
		k.active.Add(delta)
	}
}

// jobHeader is what every submission carries besides its kind's body.
type jobHeader struct {
	tenant    string
	total     int   // cells admitted at submission
	parallel  int   // cells in flight at once
	timeoutMs int64 // 0 = no deadline
	spec      any   // the normalised spec, as the store records it
}

// statusView is how much a status body carries.
type statusView int

const (
	viewRow     statusView = iota // a list row
	viewOne                       // GET /{id}
	viewPartial                   // GET /{id}?results=1: results while running too
)

// jobBody is the kind-specific half of one job.  Every method but drive
// runs with the job's lock held, or before the job is shared.
type jobBody interface {
	// drive hands the job's cells to j.dispatch, once or once per wave.
	// It returns the job's error and the ordered results that decide a
	// failed job's end state (see endState); a kind that returns none
	// never ends partial.
	drive(ctx context.Context, j *serverJob) ([]*Result, error)
	// started and done fold one cell's progress in; a non-nil event is
	// streamed to subscribers.
	started(name string) *client.Event
	done(res *Result) *client.Event
	status(j *serverJob, v statusView) any
	// canonical is a finished job's canonical JSON; nil means the job
	// ended without one.
	canonical(j *serverJob) ([]byte, error)
}

// serverJob is one submitted job of any kind.
type serverJob struct {
	srv    *Server
	kind   *jobKind
	body   jobBody
	id     string
	hdr    jobHeader
	cancel context.CancelFunc
	// reserved is the admission reservation not yet handed to the
	// dispatcher: set at submission, then touched by the executor only.
	reserved int
	// checkpoints are the cell results Restore found, by cell name;
	// dispatch answers those cells from them.  A replayed job (one that
	// finished before the restart) dispatches nothing.  All three are set
	// before the drive starts.
	checkpoints map[string]*Result
	replay      bool
	resumed     bool

	mu            sync.Mutex
	state         string
	started       time.Time
	finished      time.Time
	completed     int       // cells finished, restored checkpoints included
	final         []*Result // ordered results, once the job ends
	err           string
	userCancelled bool // DELETE, as opposed to shutdown, cancelled it
	subs          []chan client.Event
}

// newJob builds a running job whose deadline, if any, starts now.
func (s *Server) newJob(k *jobKind, body jobBody, h jobHeader, started time.Time) (*serverJob, context.Context) {
	var ctx context.Context
	var cancel context.CancelFunc
	if h.timeoutMs > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(h.timeoutMs)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := &serverJob{srv: s, kind: k, body: body, hdr: h, cancel: cancel, state: StateRunning, started: started}
	return j, ctx
}

// dispatch runs one wave of the job's cells and returns their results
// in cell order, with the first failure as the wave's error.  A cell
// with a checkpoint is answered from it; the others run on the
// dispatcher, and the first wave to dispatch carries the reservation
// admission took at submission.  A replayed job never dispatches: a
// cell without a checkpoint ends the wave with no results.
func (j *serverJob) dispatch(ctx context.Context, cells []Cell) ([]*Result, error) {
	results := make([]*Result, len(cells))
	todo := make([]Cell, 0, len(cells))
	for i, c := range cells {
		if results[i] = j.checkpoints[c.Name]; results[i] == nil {
			todo = append(todo, c)
		}
	}
	if len(todo) > 0 {
		if j.replay {
			return nil, fmt.Errorf("%s: no checkpoint to replay", todo[0].Name)
		}
		ran := j.srv.disp.Run(ctx, j.id, j.hdr.tenant, todo, j.hdr.parallel, j, j.reserved)
		j.reserved = 0
		for i := range results {
			if results[i] == nil {
				results[i], ran = ran[0], ran[1:]
			}
		}
	}
	for _, r := range results {
		if r.Err != "" {
			return results, fmt.Errorf("%s: %s", r.Experiment, r.Err)
		}
	}
	return results, nil
}

// ExperimentStarted and ExperimentDone make the job the dispatcher's
// progress Sink.
func (j *serverJob) ExperimentStarted(name string) {
	j.fold(func() *client.Event { return j.body.started(name) })
}

func (j *serverJob) ExperimentDone(res *Result) {
	j.fold(func() *client.Event {
		j.completed++
		ev := j.body.done(res)
		if ev != nil {
			ev.Completed, ev.Total = j.completed, j.hdr.total
		}
		return ev
	})
	if j.srv.store != nil {
		j.srv.checkpoint(j.id, res)
	}
}

// fold applies one progress step under the job's lock and fans its
// event out to stream subscribers.
func (j *serverJob) fold(step func() *client.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev := step(); ev != nil {
		for _, ch := range j.subs {
			select {
			case ch <- *ev:
			default: // a slow stream reader drops progress, never blocks the job
			}
		}
	}
}

// endState maps a finished drive to the job's terminal state: done on
// success; cancelled when the job's context ended or a result was
// cancelled; partial when some results succeeded; failed otherwise.
func endState(ctx context.Context, results []*Result, err error) string {
	switch {
	case err == nil:
		return StateDone
	case ctx.Err() != nil || anyCanceled(results):
		return StateCancelled
	case anyOK(results):
		return StatePartial
	}
	return StateFailed
}

func anyCanceled(rs []*Result) bool {
	for _, r := range rs {
		if r != nil && r.Canceled() {
			return true
		}
	}
	return false
}

func anyOK(rs []*Result) bool {
	for _, r := range rs {
		if r != nil && r.Status == StatusOK {
			return true
		}
	}
	return false
}

// timing is the clock half of the status envelope.
func (j *serverJob) timing() (finishedAt *time.Time, wallMs int64) {
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	} else {
		finishedAt = &end
	}
	return finishedAt, end.Sub(j.started).Milliseconds()
}

// shownResults is the results half of a status whose cells are its
// results (runs, litmus): the ordered final set once the job ended,
// else the cells done so far.  They are always counted, and shown when
// asked for or once the job finished.
func (j *serverJob) shownResults(done []*Result, v statusView) (shown []*Result, measurements, samples int) {
	counted := done
	if j.final != nil {
		counted = j.final
	}
	for _, res := range counted {
		if res != nil {
			measurements += res.Measurements
			samples += res.Samples
		}
	}
	if v == viewPartial || j.state != StateRunning {
		shown = j.final
		if shown == nil {
			shown = append([]*Result{}, done...)
		}
	}
	return shown, measurements, samples
}

func (j *serverJob) status(v statusView) any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.body.status(j, v)
}

// submitJob is the POST handler of every kind.
func (s *Server) submitJob(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, h, err := k.parse(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, ErrCodeInvalidArgument, "%v", err)
			return
		}
		// Admission control: refuse work the dispatch queue cannot absorb —
		// globally or within this tenant's quota — with a Retry-After hint,
		// before anything is recorded.  The reservation is released cell by
		// cell as the job's cells finish.
		switch err := s.disp.TryAdmit(h.tenant, h.total); err {
		case nil:
		case ErrTenantSaturated:
			s.writeSaturated(w, "tenant %q queue quota exceeded (%d %s refused)", h.tenant, h.total, k.unit)
			return
		default:
			s.writeSaturated(w, "dispatch queue saturated (%d %s refused)", h.total, k.unit)
			return
		}
		j, ctx := s.newJob(k, body, h, time.Now())
		j.reserved = h.total
		abandon := func() {
			j.cancel()
			s.disp.admitForce(h.tenant, -h.total)
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			abandon()
			writeErr(w, http.StatusServiceUnavailable, ErrCodeUnavailable, "server shutting down")
			return
		}
		if !s.tenantAdmitRunningLocked(h.tenant) {
			s.mu.Unlock()
			abandon()
			s.disp.met.tenantRejected.Inc(h.tenant, "tenant_running")
			s.writeSaturated(w, "tenant %q already has %d jobs executing", h.tenant, s.tenantMaxRunning)
			return
		}
		k.seq++
		j.id = fmt.Sprintf("%s-%d", k.name, k.seq)
		s.addLocked(j)
		s.active.Add(1)
		s.mu.Unlock()

		// Persist the spec before any work happens, so a crash at any later
		// point leaves a resumable record.  Durability is best-effort: a
		// store failure degrades to the in-memory behaviour and is counted —
		// except a *fenced* write, which proves another coordinator owns the
		// store: that refuses the job outright, because work accepted here
		// could never be recorded and this process is about to exit.
		if s.store != nil {
			raw, err := json.Marshal(h.spec)
			if err == nil {
				err = s.store.Begin(j.id, raw, j.started)
			}
			if err != nil {
				s.storeFailed("begin", err)
				if errors.Is(err, runstore.ErrFenced) {
					s.mu.Lock()
					s.removeLocked(j)
					s.tenantRunningAddLocked(h.tenant, -1)
					s.mu.Unlock()
					s.active.Done()
					abandon()
					writeErr(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
						"coordinator deposed: run store is fenced at a newer lease term")
					return
				}
			}
		}
		k.ended.Inc("submitted")
		k.setActive(1)

		go s.execute(ctx, j)
		writeJSON(w, http.StatusAccepted, client.Submitted{ID: j.id, State: StateRunning, Total: h.total})
	}
}

// execute drives the job to its terminal state on its own goroutine.
func (s *Server) execute(ctx context.Context, j *serverJob) {
	defer s.active.Done()
	defer j.cancel()
	results, err := j.body.drive(ctx, j)
	if j.reserved != 0 {
		// The drive ended before dispatching: release its reservation.
		s.disp.admitForce(j.hdr.tenant, -j.reserved)
	}
	s.tenantRunningDone(j.hdr.tenant)

	j.mu.Lock()
	j.final, j.finished = results, time.Now()
	j.state = endState(ctx, results, err)
	if err != nil {
		j.err = err.Error()
	}
	state, errMsg, userCancelled := j.state, j.err, j.userCancelled
	end := client.Event{Event: "end", State: state, Completed: j.completed, Total: j.hdr.total}
	subs := j.subs
	j.subs = nil
	j.mu.Unlock()
	j.kind.ended.Inc(state)
	j.kind.setActive(-1)

	// Record the terminal state — except for a shutdown-triggered
	// cancellation, which deliberately leaves the job interrupted in the
	// store so the next startup resumes it from its checkpoints.  An
	// explicit DELETE is a user decision and stays terminal.
	if s.store != nil {
		s.mu.Lock()
		closing := s.closed
		s.mu.Unlock()
		if state != StateCancelled || userCancelled || !closing {
			if err := s.store.End(j.id, state, errMsg); err != nil {
				s.storeFailed("end", err)
			}
		}
	}

	for _, ch := range subs {
		select {
		case ch <- end:
		default: // dead reader with a full buffer; the close wakes it
		}
		close(ch)
	}
}

// rebuild adapts a kind's constructor to the spec a store record holds.
func rebuild[S any](build func(S) (jobBody, jobHeader, error)) func(json.RawMessage) (jobBody, jobHeader, error) {
	return func(raw json.RawMessage) (jobBody, jobHeader, error) {
		var spec S
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, jobHeader{}, err
		}
		return build(spec)
	}
}

// kindOf places a <kind>-N job ID, or returns nil.
func (s *Server) kindOf(id string) (*jobKind, int) {
	name, num, _ := strings.Cut(id, "-")
	n, err := strconv.Atoi(num)
	for _, k := range s.kinds() {
		if k.name == name && err == nil && n > 0 {
			return k, n
		}
	}
	return nil, 0
}

// Restore replays the run store into the server, for jobs of every
// kind.  Each kind's ID sequence continues past its highest ID on disk.
// A finished job (one with an end record) is rebuilt by its own drive,
// every cell answered from its checkpoint and nothing dispatched, and
// becomes a read-only catalogue entry again.  An interrupted job (a spec
// with no end record: the process died or was shut down mid-job) resumes
// from its successful checkpoints; positional seed derivation makes the
// cells it runs again produce the bytes they would have produced
// uninterrupted, so its canonical JSON is byte-identical.  A record
// Restore cannot place or decode is counted and skipped.  Call Restore
// once, after NewServer and before serving traffic.
func (s *Server) Restore() (resumed, restored int, err error) {
	if s.store == nil {
		return 0, 0, nil
	}
	recs, err := s.store.Load()
	if err != nil {
		s.met.storeErrors.Inc("load")
		return 0, 0, err
	}
	for _, rec := range recs {
		k, n := s.kindOf(rec.ID)
		if k == nil {
			s.met.storeErrors.Inc("decode")
			continue
		}
		s.mu.Lock()
		k.seq = max(k.seq, n)
		s.mu.Unlock()
		body, h, err := k.build(rec.Spec)
		if err != nil {
			s.met.storeErrors.Inc("decode")
			continue
		}
		h.tenant = cmp.Or(h.tenant, DefaultTenant) // a spec stored before tenancy
		// An interrupted job's deadline restarts from now: the original
		// budget cannot be reconstructed across a crash, and a fresh one
		// errs on the side of letting the job finish.
		j, ctx := s.newJob(k, body, h, rec.Started)
		j.id, j.replay = rec.ID, rec.EndState != ""
		j.checkpoints = make(map[string]*Result, len(rec.Experiments))
		// A finished job keeps every checkpoint; an interrupted one only
		// its successful ones, so failed, cancelled and incomplete cells
		// get a fresh attempt.  An undecodable checkpoint is dropped.  Each
		// kept checkpoint folds into the job's progress as it did live.
		for _, exp := range rec.Experiments {
			var res Result
			if json.Unmarshal(exp.Result, &res) != nil {
				s.met.storeErrors.Inc("decode")
				continue
			}
			if j.replay || res.Status == StatusOK {
				j.checkpoints[exp.Name] = &res
				j.completed++
				body.done(&res)
			}
		}
		if j.replay {
			j.final, _ = body.drive(ctx, j)
			j.cancel()
			j.state, j.err, j.finished = rec.EndState, rec.EndError, rec.Finished
			if j.finished.IsZero() {
				j.finished = j.started
			}
			s.mu.Lock()
			if k.jobs[j.id] == nil {
				s.addLocked(j)
				restored++
				s.met.runsRestored.Inc()
			}
			s.mu.Unlock()
			continue
		}
		j.resumed = true
		s.mu.Lock()
		if k.jobs[j.id] != nil || s.closed {
			s.mu.Unlock()
			j.cancel()
			continue
		}
		s.addLocked(j)
		s.active.Add(1)
		// Resumed jobs bypass admission and the running quota: abandoning
		// checkpointed work is worse than a brief overshoot after failover.
		s.tenantRunningAddLocked(h.tenant, 1)
		s.mu.Unlock()
		k.setActive(1)
		s.met.runsResumed.Inc()
		resumed++
		go s.execute(ctx, j)
	}
	return resumed, restored, nil
}

// addLocked enters a job into its kind's catalogue; s.mu must be held.
func (s *Server) addLocked(j *serverJob) {
	k := j.kind
	k.jobs[j.id] = j
	if k.kept != nil {
		k.kept.Set(float64(len(k.jobs)))
	}
}

// removeLocked drops a job from its kind's catalogue, reporting whether
// it was still there; s.mu must be held.
func (s *Server) removeLocked(j *serverJob) bool {
	k := j.kind
	if k.jobs[j.id] != j {
		return false
	}
	delete(k.jobs, j.id)
	if k.kept != nil {
		k.kept.Set(float64(len(k.jobs)))
	}
	return true
}

// remove drops finished jobs from the catalogue and from the store, or
// they would resurrect at the next restart, counting each as swept.
func (s *Server) remove(jobs ...*serverJob) {
	var gone []*serverJob
	s.mu.Lock()
	for _, j := range jobs {
		if s.removeLocked(j) { // a concurrent DELETE may have removed it
			gone = append(gone, j)
		}
	}
	s.mu.Unlock()
	for _, j := range gone {
		j.kind.swept.Inc()
		if s.store != nil {
			if err := s.store.Delete(j.id); err != nil {
				s.storeFailed("delete", err)
			}
		}
	}
}

// lookup finds the {id} job of kind k, answering 404 when there is none.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, k *jobKind) *serverJob {
	id := r.PathValue("id")
	s.mu.Lock()
	j := k.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, ErrCodeNotFound, "unknown %s %q", k.noun, id)
	}
	return j
}

// runIDLess is the listing order: submission order for <kind>-N IDs
// (run-2 before run-10), length-then-lexicographic in general.
func runIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// listJobs serves the statuses of a kind in submission order: one
// cursor-paginated page ({"items", "next_after"}, ?limit=&after=), or
// the legacy bare array of every job.
func (s *Server) listJobs(k *jobKind, legacy bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		jobs := make([]*serverJob, 0, len(k.jobs))
		for _, j := range k.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		sort.Slice(jobs, func(a, b int) bool { return runIDLess(jobs[a].id, jobs[b].id) })
		rows := func(jobs []*serverJob) []any {
			out := make([]any, len(jobs))
			for i, j := range jobs {
				out[i] = j.status(viewRow)
			}
			return out
		}
		if legacy {
			writeJSON(w, http.StatusOK, rows(jobs))
			return
		}
		limit, after, ok := pageParams(w, r)
		if !ok {
			return
		}
		start := 0
		if after != "" {
			for i, j := range jobs {
				if !runIDLess(after, j.id) {
					start = i + 1
				}
			}
		}
		end := min(start+limit, len(jobs))
		pg := page{Items: []any{}}
		if start < len(jobs) {
			pg.Items = rows(jobs[start:end])
		}
		if end < len(jobs) {
			pg.NextAfter = jobs[end-1].id
		}
		writeJSON(w, http.StatusOK, pg)
	}
}

// jobStatus serves GET /{id}: the status body (?results=1 includes
// partial results), ?canonical=1 the finished job's canonical JSON, and
// for streaming kinds ?stream=1 NDJSON progress.
func (s *Server) jobStatus(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r, k)
		if j == nil {
			return
		}
		q := r.URL.Query()
		switch {
		case k.streams && q.Get("stream") != "":
			j.stream(w, r)
		case q.Get("canonical") != "":
			j.serveCanonical(w)
		case q.Get("results") != "":
			writeJSON(w, http.StatusOK, j.status(viewPartial))
		default:
			writeJSON(w, http.StatusOK, j.status(viewOne))
		}
	}
}

// serveCanonical serves a finished job's canonical JSON — the
// byte-comparable form used to verify that sharded, resumed, cached and
// local executions of the same spec agree exactly.
func (j *serverJob) serveCanonical(w http.ResponseWriter) {
	j.mu.Lock()
	state := j.state
	var raw []byte
	var err error
	if state != StateRunning {
		raw, err = j.body.canonical(j)
	}
	j.mu.Unlock()
	noun := j.kind.noun
	switch {
	case state == StateRunning:
		writeErr(w, http.StatusConflict, ErrCodeConflict,
			"%s %s is still running; canonical JSON exists only for finished %ss", noun, j.id, noun)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "internal", "canonicalise %s %s: %v", noun, j.id, err)
	case raw == nil:
		writeErr(w, http.StatusConflict, ErrCodeConflict, "%s %s finished %s without a report", noun, j.id, state)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
	}
}

// subscribe atomically snapshots the job and, if it is still running,
// registers ch for subsequent events.  Taking the snapshot under the
// same lock that appends the subscriber is what makes the stream
// exactly-once: an event is either reflected in the snapshot or
// delivered on ch, never both and never neither.
func (j *serverJob) subscribe(ch chan client.Event) (snapshot any, end client.Event, subscribed bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	end = client.Event{Event: "end", State: j.state, Completed: j.completed, Total: j.hdr.total}
	if j.state == StateRunning {
		j.subs = append(j.subs, ch)
		subscribed = true
	}
	return j.body.status(j, viewOne), end, subscribed
}

// unsubscribe removes ch from the job's subscriber list, if present.
func (j *serverJob) unsubscribe(ch chan client.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, sub := range j.subs {
		if sub == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// stream serves NDJSON progress: one snapshot line, then an event line
// per cell start/finish, then an "end" line.  The snapshot and the
// subscription are taken atomically, so each progress event appears
// exactly once — either folded into the snapshot or streamed.  Encode
// errors (a client that went away mid-write) end the stream.
func (j *serverJob) stream(w http.ResponseWriter, r *http.Request) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	ch := make(chan client.Event, 64)
	snapshot, end, subscribed := j.subscribe(ch)

	if err := enc.Encode(snapshot); err != nil {
		if subscribed {
			j.unsubscribe(ch)
		}
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	if !subscribed {
		enc.Encode(end)
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				j.unsubscribe(ch)
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Event == "end" {
				return
			}
		case <-r.Context().Done():
			j.unsubscribe(ch)
			return
		}
	}
}

// cancelJob serves DELETE /{id}: it cancels a running job; on a finished
// one it acts as a removal from the catalogue (the manual counterpart of
// the retention sweep).
func (s *Server) cancelJob(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r, k)
		if j == nil {
			return
		}
		// Mark the cancellation as a user decision before it takes effect,
		// so execute records it as terminal rather than resumable.
		j.mu.Lock()
		j.userCancelled = true
		state := j.state
		j.mu.Unlock()
		j.cancel()
		if state == StateRunning {
			writeJSON(w, http.StatusOK, client.CancelResponse{ID: j.id, State: "cancelling"})
			return
		}
		s.remove(j)
		writeJSON(w, http.StatusOK, client.CancelResponse{ID: j.id, State: state, Deleted: true})
	}
}
