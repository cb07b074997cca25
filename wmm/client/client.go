// Package client is the typed Go client for the wmmd v1 API: the
// versioned HTTP surface of the weak-memory-model benchmarking service
// (run submission, status, streaming progress, cancellation, the
// paginated catalogues, generated litmus campaigns, fence-strategy
// optimizer jobs) plus the worker
// lease protocol the sharded execution backend speaks (cmd/wmmworker
// is built on it).  Its types declare the v1 wire: wmmd encodes and
// decodes the same types, and declares only RunStatus, LitmusStatus,
// OptimizeStatus and OptimizeSpec again, with typed engine values where
// this package keeps raw JSON.
//
// Every method takes a context and propagates it through the request.
// Non-2xx responses decode the uniform error envelope {"error":
// {"code", "message"}} into *Error.  Submissions refused by admission
// control (429) are retried automatically, honouring the server's
// Retry-After hint; 503s and connection-refused dial errors — a
// coordinator restarting or failing over to a standby — are retried
// with capped exponential backoff from the same attempt budget, so
// workers and clients ride out a failover without surfacing transient
// errors.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// asError is errors.As with a pointer target, split out so types.go
// stays free of the errors import knot.
func asError(err error, target **Error) bool { return errors.As(err, target) }

// Client talks to one wmmd server.  A Client is safe for concurrent
// use by multiple goroutines.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int           // extra attempts after a retryable failure (0 = no retry)
	maxWait    time.Duration // cap on one backoff pause
	tenant     string        // X-WMM-Tenant header value ("" = none)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets how many times a retryable failure (429, 503, dial
// refused) is retried (default 4) and the cap on one backoff pause
// (default 30s).
func WithRetry(attempts int, maxWait time.Duration) Option {
	return func(c *Client) {
		c.maxRetries = attempts
		if maxWait > 0 {
			c.maxWait = maxWait
		}
	}
}

// WithTenant stamps every request with the X-WMM-Tenant header, naming
// the fair-share queue and quota bucket submissions are accounted to.
// The header wins over any tenant field in a submitted spec.
func WithTenant(name string) Option { return func(c *Client) { c.tenant = name } }

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8347").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         http.DefaultClient,
		maxRetries: 4,
		maxWait:    30 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// apiErr decodes the error envelope from a non-2xx response.
func apiErr(resp *http.Response, body []byte) *Error {
	e := &Error{Status: resp.StatusCode}
	var env ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && (env.Error.Code != "" || env.Error.Message != "") {
		e.Code, e.Message = env.Error.Code, env.Error.Message
	} else {
		e.Message = strings.TrimSpace(string(body))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// newRequest builds a request with the client's standing headers (the
// tenant identity), so the raw-response paths (canonical JSON, NDJSON
// streaming) carry them like the typed ones.
func (c *Client) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if c.tenant != "" {
		req.Header.Set("X-WMM-Tenant", c.tenant)
	}
	return req, nil
}

// retryableDialErr reports a connection-level failure worth retrying:
// nothing was accepting on the port (coordinator restarting, standby
// not yet promoted).  Failures after the connection was established are
// not retried — the request may have executed.
func retryableDialErr(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// backoff computes the pause before retry attempt n: the server's
// Retry-After when given, else exponential from 250ms, capped.
func (c *Client) backoff(hint time.Duration, attempt int) time.Duration {
	wait := hint
	if wait <= 0 {
		wait = 250 * time.Millisecond << attempt
	}
	if wait > c.maxWait {
		wait = c.maxWait
	}
	return wait
}

// sleep pauses for d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	}
}

// do performs one API call: marshal in (if non-nil), retry retryable
// failures (429 honouring Retry-After, 503, dial refused) with capped
// backoff, decode the envelope on failure and out (if non-nil) on
// success.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: marshal %s %s body: %w", method, path, err)
		}
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if in != nil {
			rd = bytes.NewReader(body)
		}
		req, err := c.newRequest(ctx, method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if retryableDialErr(err) && attempt < c.maxRetries {
				if serr := sleep(ctx, c.backoff(0, attempt)); serr != nil {
					return serr
				}
				continue
			}
			return fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("client: %s %s: read body: %w", method, path, err)
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(raw, out); err != nil {
				return fmt.Errorf("client: %s %s: decode response: %w", method, path, err)
			}
			return nil
		}
		apiE := apiErr(resp, raw)
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if retryable && attempt < c.maxRetries {
			if serr := sleep(ctx, c.backoff(apiE.RetryAfter, attempt)); serr != nil {
				return serr
			}
			continue
		}
		return apiE
	}
}

// GetJSON performs a raw GET against an arbitrary server path and
// decodes the JSON response into out (which may be nil to discard).
// It is the escape hatch for endpoints outside the typed surface
// (/healthz, /readyz, legacy shims); errors still decode the envelope
// into *Error.
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// pageQuery renders cursor pagination into a query string.
func pageQuery(p Page) string {
	q := url.Values{}
	if p.Limit > 0 {
		q.Set("limit", strconv.Itoa(p.Limit))
	}
	if p.After != "" {
		q.Set("after", p.After)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Experiments returns one page of the experiment catalogue.
func (c *Client) Experiments(ctx context.Context, p Page) (ExperimentsPage, error) {
	var out ExperimentsPage
	err := c.do(ctx, http.MethodGet, "/api/v1/experiments"+pageQuery(p), nil, &out)
	return out, err
}

// SubmitRun submits a run, retrying on admission-control 429s per the
// client's retry budget.
func (c *Client) SubmitRun(ctx context.Context, spec RunSpec) (Submitted, error) {
	var out Submitted
	err := c.do(ctx, http.MethodPost, "/api/v1/runs", spec, &out)
	return out, err
}

// Runs returns one page of run statuses, in submission order.
func (c *Client) Runs(ctx context.Context, p Page) (RunsPage, error) {
	var out RunsPage
	err := c.do(ctx, http.MethodGet, "/api/v1/runs"+pageQuery(p), nil, &out)
	return out, err
}

// Run returns a run's status.  includeResults asks for partial results
// while the run is still executing (final results are always present).
func (c *Client) Run(ctx context.Context, id string, includeResults bool) (RunStatus, error) {
	path := "/api/v1/runs/" + url.PathEscape(id)
	if includeResults {
		path += "?results=1"
	}
	var out RunStatus
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// CanonicalRun returns a finished run's canonical JSON — the ordered
// results with wall times zeroed, the byte-comparable form that must
// be identical for local, sharded and resumed executions of the same
// spec and seed.
func (c *Client) CanonicalRun(ctx context.Context, id string) ([]byte, error) {
	return c.canonical(ctx, "runs", id)
}

// canonical fetches a finished job's ?canonical=1 bytes, raw.
func (c *Client) canonical(ctx context.Context, resource, id string) ([]byte, error) {
	req, err := c.newRequest(ctx, http.MethodGet,
		c.base+"/api/v1/"+resource+"/"+url.PathEscape(id)+"?canonical=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiErr(resp, raw)
	}
	return raw, nil
}

// CancelRun cancels a running run, or removes a finished one from the
// catalogue.
func (c *Client) CancelRun(ctx context.Context, id string) (CancelResponse, error) {
	var out CancelResponse
	err := c.do(ctx, http.MethodDelete, "/api/v1/runs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// WaitRun polls a run until it leaves the running state (or ctx ends),
// returning the final status.
func (c *Client) WaitRun(ctx context.Context, id string, poll time.Duration) (RunStatus, error) {
	return wait(ctx, poll, func() (RunStatus, string, error) {
		st, err := c.Run(ctx, id, false)
		return st, st.State, err
	})
}

// wait polls get until the job it reads leaves the running state (or ctx
// ends), returning the last status read.
func wait[S any](ctx context.Context, poll time.Duration, get func() (S, string, error)) (S, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		st, state, err := get()
		if err != nil || state != StateRunning {
			return st, err
		}
		t := time.NewTimer(poll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return st, ctx.Err()
		}
	}
}

// WatchRun streams a run's NDJSON progress: the opening snapshot is
// returned, and fn is invoked for each subsequent event until the
// terminal "end" event (inclusive), the stream closes, or fn returns a
// non-nil error (which aborts the watch and is returned).
func (c *Client) WatchRun(ctx context.Context, id string, fn func(Event) error) (RunStatus, error) {
	var snap RunStatus
	req, err := c.newRequest(ctx, http.MethodGet,
		c.base+"/api/v1/runs/"+url.PathEscape(id)+"?stream=1", nil)
	if err != nil {
		return snap, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return snap, apiErr(resp, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // snapshots can be large
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return snap, err
		}
		return snap, io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
		return snap, fmt.Errorf("client: decode stream snapshot: %w", err)
	}
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return snap, fmt.Errorf("client: decode stream event: %w", err)
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return snap, err
			}
		}
		if ev.Event == "end" {
			return snap, nil
		}
	}
	return snap, sc.Err()
}

// SubmitLitmus submits a generated litmus campaign, retrying on
// admission-control 429s per the client's retry budget.
func (c *Client) SubmitLitmus(ctx context.Context, spec LitmusSpec) (Submitted, error) {
	var out Submitted
	err := c.do(ctx, http.MethodPost, "/api/v1/litmus", spec, &out)
	return out, err
}

// Litmus returns a campaign's status.  includeResults asks for partial
// shard results while the campaign is still executing (final results
// are always present).
func (c *Client) Litmus(ctx context.Context, id string, includeResults bool) (LitmusStatus, error) {
	path := "/api/v1/litmus/" + url.PathEscape(id)
	if includeResults {
		path += "?results=1"
	}
	var out LitmusStatus
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// WaitLitmus polls a campaign until it leaves the running state (or ctx
// ends), returning the final status.
func (c *Client) WaitLitmus(ctx context.Context, id string, poll time.Duration) (LitmusStatus, error) {
	return wait(ctx, poll, func() (LitmusStatus, string, error) {
		st, err := c.Litmus(ctx, id, false)
		return st, st.State, err
	})
}

// CanonicalLitmus returns a finished campaign's canonical JSON — the
// ordered shard results with wall times zeroed, byte-identical for
// local, sharded and re-executed campaigns of the same spec.
func (c *Client) CanonicalLitmus(ctx context.Context, id string) ([]byte, error) {
	return c.canonical(ctx, "litmus", id)
}

// CancelLitmus cancels a running campaign, or removes a finished one
// from the catalogue.
func (c *Client) CancelLitmus(ctx context.Context, id string) (CancelResponse, error) {
	var out CancelResponse
	err := c.do(ctx, http.MethodDelete, "/api/v1/litmus/"+url.PathEscape(id), nil, &out)
	return out, err
}

// LitmusList returns one page of litmus campaign statuses, in
// submission order.
func (c *Client) LitmusList(ctx context.Context, p Page) (LitmusPage, error) {
	var out LitmusPage
	err := c.do(ctx, http.MethodGet, "/api/v1/litmus"+pageQuery(p), nil, &out)
	return out, err
}

// SubmitOptimize submits a fence-strategy optimizer job, retrying on
// admission-control 429s per the client's retry budget.
func (c *Client) SubmitOptimize(ctx context.Context, spec OptimizeSpec) (Submitted, error) {
	var out Submitted
	err := c.do(ctx, http.MethodPost, "/api/v1/optimize", spec, &out)
	return out, err
}

// Optimize returns an optimizer job's status (the ranked report rides
// along as raw JSON once the job is done).
func (c *Client) Optimize(ctx context.Context, id string) (OptimizeStatus, error) {
	var out OptimizeStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/optimize/"+url.PathEscape(id), nil, &out)
	return out, err
}

// OptimizeList returns one page of optimizer job statuses, in
// submission order.
func (c *Client) OptimizeList(ctx context.Context, p Page) (OptimizePage, error) {
	var out OptimizePage
	err := c.do(ctx, http.MethodGet, "/api/v1/optimize"+pageQuery(p), nil, &out)
	return out, err
}

// WaitOptimize polls an optimizer job until it leaves the running state
// (or ctx ends), returning the final status.
func (c *Client) WaitOptimize(ctx context.Context, id string, poll time.Duration) (OptimizeStatus, error) {
	return wait(ctx, poll, func() (OptimizeStatus, string, error) {
		st, err := c.Optimize(ctx, id)
		return st, st.State, err
	})
}

// CanonicalOptimize returns a finished optimizer job's canonical report
// JSON — byte-identical for the same spec and seed wherever the job's
// cells executed (local, sharded, or served from the result cache).
func (c *Client) CanonicalOptimize(ctx context.Context, id string) ([]byte, error) {
	return c.canonical(ctx, "optimize", id)
}

// CancelOptimize cancels a running optimizer job, or removes a finished
// one from the catalogue.
func (c *Client) CancelOptimize(ctx context.Context, id string) (CancelResponse, error) {
	var out CancelResponse
	err := c.do(ctx, http.MethodDelete, "/api/v1/optimize/"+url.PathEscape(id), nil, &out)
	return out, err
}

// Lease asks the coordinator for a batch of up to maxJobs cells under a
// new lease.  worker identifies this process in
// assignment records and logs.  An empty grant (LeaseID == "") means
// no work was queued.
func (c *Client) Lease(ctx context.Context, worker string, maxJobs int) (LeaseGrant, error) {
	var out LeaseGrant
	err := c.do(ctx, http.MethodPost, "/api/v1/leases", LeaseRequest{MaxJobs: maxJobs, Worker: worker}, &out)
	return out, err
}

// Heartbeat renews a lease, returning the refreshed TTL.  A *Error
// with status 410 means the lease expired and its jobs were re-queued:
// abandon the batch.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) (time.Duration, error) {
	var out HeartbeatReply
	err := c.do(ctx, http.MethodPost, "/api/v1/leases/"+url.PathEscape(leaseID)+"/heartbeat", struct{}{}, &out)
	return time.Duration(out.TTLMs) * time.Millisecond, err
}

// UploadResults settles a lease with the batch's completed results.
// Jobs the upload does not cover are re-queued by the coordinator.  A
// *Error with status 410 means the lease already expired — the batch
// was re-queued and this upload is moot; drop it.
func (c *Client) UploadResults(ctx context.Context, leaseID string, results []JobResult) (UploadAck, error) {
	var out UploadAck
	err := c.do(ctx, http.MethodPost, "/api/v1/leases/"+url.PathEscape(leaseID)+"/results",
		ResultsUpload{Results: results}, &out)
	return out, err
}
