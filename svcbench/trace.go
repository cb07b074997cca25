package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runstore"
)

// Spans are recorded only around calls the benchmark itself makes into
// the program: the client's round trips, the server handler, the run
// store, the worker's round trips and (explore) a replay of each job's
// optimizer cells.  Nothing inside the program is instrumented.

// Headers linking a server-side span to the client span and job that
// caused it.
const (
	hdrJob  = "X-Svcbench-Job"
	hdrSpan = "X-Svcbench-Span"
)

// noJob marks a span no job can be attributed to (an idle worker poll).
const noJob = -1

// span is one timed call at a layer boundary.  Start and End are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Detail string `json:"detail,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while switched on.  The benchmark drives
// one closed-loop client, so exactly one job is in flight at a time:
// calls that carry no id of their own (cache reads, a submission's
// first store write) belong to the current job.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64
	cur    atomic.Int64 // job in flight

	mu     sync.Mutex
	spans  []span
	jobOf  map[string]int // run, campaign, optimize-job or lease id → job
	execAt map[string]int64
	leases struct{ calls, empty int }
}

func newTracer() *tracer {
	t := &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<16),
		jobOf:  map[string]int{},
		execAt: map[string]int64{},
	}
	t.cur.Store(noJob)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// link attributes later calls naming id to job.
func (t *tracer) link(id string, job int) {
	t.mu.Lock()
	t.jobOf[id] = job
	t.mu.Unlock()
}

// job resolves id to its job, falling back to the job in flight.
func (t *tracer) job(id string) int {
	t.mu.Lock()
	j, ok := t.jobOf[id]
	t.mu.Unlock()
	if ok {
		return j
	}
	return int(t.cur.Load())
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobCtx carries the job index and its root span id to the client's
// RoundTripper.
type jobCtx struct {
	job  int
	span int64
}

type jobCtxKey struct{}

func withJob(ctx context.Context, j jobCtx) context.Context {
	return context.WithValue(ctx, jobCtxKey{}, j)
}

func jobFrom(ctx context.Context) (jobCtx, bool) {
	j, ok := ctx.Value(jobCtxKey{}).(jobCtx)
	return j, ok
}

// spanBody ends its span when the response body is closed, so a round
// trip's span covers reading the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// clientTransport traces the benchmark client's round trips and stamps
// each request with its job and span, so the handler wrapper can link
// the server side.  A submission's response is read here to learn the
// job's resource id.
type clientTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	jc, ok := jobFrom(req.Context())
	if !c.tr.on.Load() || !ok {
		return c.base.RoundTrip(req)
	}
	s := span{ID: c.tr.nextID.Add(1), Parent: jc.span, Name: "client", Job: jc.job,
		Detail: req.Method + " " + req.URL.RequestURI(), Bytes: req.ContentLength}
	req = req.Clone(req.Context())
	req.Header.Set(hdrJob, strconv.Itoa(jc.job))
	req.Header.Set(hdrSpan, strconv.FormatInt(s.ID, 10))
	s.Start = c.tr.now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		s.End = c.tr.now()
		c.tr.record(s)
		return resp, err
	}
	if req.Method == http.MethodPost && resp.StatusCode/100 == 2 {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		var sub struct {
			ID string `json:"id"`
		}
		if rerr == nil && json.Unmarshal(body, &sub) == nil && sub.ID != "" {
			c.tr.link(sub.ID, jc.job)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = c.tr.now()
		c.tr.record(s)
	}}
	return resp, nil
}

// traceHandler wraps the server's handler with one span per request,
// linked to the caller's span by the request headers.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		job, err := strconv.Atoi(r.Header.Get(hdrJob))
		if err != nil {
			job = int(tr.cur.Load())
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		s := span{ID: tr.nextID.Add(1), Parent: parent, Name: "http", Job: job,
			Detail: r.Method + " " + r.URL.Path, Start: tr.now()}
		h.ServeHTTP(w, r)
		s.End = tr.now()
		tr.record(s)
	})
}

// workerTransport traces the in-process worker's lease, heartbeat and
// upload round trips.  Lease grants link their lease id to the job the
// leased shards belong to; the gap between a grant and its upload is
// the worker's execution span.
type workerTransport struct {
	base http.RoundTripper
	tr   *tracer
}

// leaseOp classifies a worker request path and extracts its lease id.
func leaseOp(path string) (op, leaseID string) {
	rest, ok := strings.CutPrefix(path, "/api/v1/leases")
	if !ok {
		return "other", ""
	}
	if rest == "" || rest == "/" {
		return "lease", ""
	}
	id, tail, _ := strings.Cut(strings.TrimPrefix(rest, "/"), "/")
	switch tail {
	case "heartbeat":
		return "heartbeat", id
	case "results":
		return "upload", id
	}
	return "other", id
}

func (w *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !w.tr.on.Load() {
		return w.base.RoundTrip(req)
	}
	op, leaseID := leaseOp(req.URL.Path)
	job := noJob
	if leaseID != "" {
		job = w.tr.job(leaseID)
	}
	s := span{ID: w.tr.nextID.Add(1), Name: "worker." + op, Job: job, Detail: leaseID, Bytes: req.ContentLength}
	req = req.Clone(req.Context())
	req.Header.Set(hdrJob, strconv.Itoa(job))
	req.Header.Set(hdrSpan, strconv.FormatInt(s.ID, 10))
	s.Start = w.tr.now()
	if op == "upload" {
		w.tr.endExec(leaseID, job, s.Start)
	}
	resp, err := w.base.RoundTrip(req)
	if err == nil && op == "lease" && resp.StatusCode/100 == 2 {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var grant struct {
			LeaseID string `json:"lease_id"`
			Jobs    []struct {
				RunID string `json:"run_id"`
			} `json:"jobs"`
		}
		empty := rerr != nil || json.Unmarshal(body, &grant) != nil || grant.LeaseID == "" || len(grant.Jobs) == 0
		w.tr.mu.Lock()
		w.tr.leases.calls++
		if empty {
			w.tr.leases.empty++
		}
		w.tr.mu.Unlock()
		if !empty {
			job = w.tr.job(grant.Jobs[0].RunID)
			s.Job, s.Detail = job, grant.LeaseID
			w.tr.link(grant.LeaseID, job)
			w.tr.mu.Lock()
			w.tr.execAt[grant.LeaseID] = w.tr.now()
			w.tr.mu.Unlock()
		}
	}
	s.End = w.tr.now()
	w.tr.record(s)
	return resp, err
}

// endExec closes the execution span of a lease at its upload.
func (t *tracer) endExec(leaseID string, job int, end int64) {
	t.mu.Lock()
	start, ok := t.execAt[leaseID]
	delete(t.execAt, leaseID)
	t.mu.Unlock()
	if ok {
		t.record(span{ID: t.nextID.Add(1), Name: "worker.exec", Job: job, Detail: leaseID, Start: start, End: end})
	}
}

// tracedStore decorates the run store: every call is a "store" span,
// linked to its job by run id.
type tracedStore struct {
	runstore.Storage
	tr *tracer
}

func (s *tracedStore) op(name, id string, n int) func() {
	if !s.tr.on.Load() {
		return func() {}
	}
	sp := span{ID: s.tr.nextID.Add(1), Name: "store", Job: s.tr.job(id), Detail: name, Bytes: int64(n), Start: s.tr.now()}
	return func() {
		sp.End = s.tr.now()
		s.tr.record(sp)
	}
}

func (s *tracedStore) Begin(id string, spec json.RawMessage, at time.Time) error {
	defer s.op("begin", id, len(spec))()
	return s.Storage.Begin(id, spec, at)
}

func (s *tracedStore) Checkpoint(id, experiment string, result json.RawMessage) error {
	defer s.op("checkpoint", id, len(result))()
	return s.Storage.Checkpoint(id, experiment, result)
}

func (s *tracedStore) Assign(id, experiment, worker string) error {
	defer s.op("assign", id, 0)()
	return s.Storage.Assign(id, experiment, worker)
}

func (s *tracedStore) End(id, state, errMsg string) error {
	defer s.op("end", id, 0)()
	return s.Storage.End(id, state, errMsg)
}

func (s *tracedStore) Delete(id string) error {
	defer s.op("delete", id, 0)()
	return s.Storage.Delete(id)
}

func (s *tracedStore) CacheGet(key string) ([]byte, bool) {
	if !s.tr.on.Load() {
		return s.Storage.CacheGet(key)
	}
	sp := span{ID: s.tr.nextID.Add(1), Name: "store", Job: int(s.tr.cur.Load()), Detail: "cache-get", Start: s.tr.now()}
	data, ok := s.Storage.CacheGet(key)
	sp.End, sp.Bytes = s.tr.now(), int64(len(data))
	s.tr.record(sp)
	return data, ok
}

func (s *tracedStore) CachePut(key string, data []byte) error {
	defer s.op("cache-put", "", len(data))()
	return s.Storage.CachePut(key, data)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}
