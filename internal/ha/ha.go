// Package ha elects a single coordinator among wmmd processes sharing a
// run store, using the store's coordinator lease (runstore.CoordLease).
//
// Each process runs a Controller.  At most one holds the lease and acts
// as leader: it builds the real API (engine + server + Restore) through
// the OnPromote callback and serves it.  The others stay standby,
// polling the lease and answering /healthz (alive) and /readyz (503,
// role "standby") so operators and load balancers can tell a healthy
// standby from a broken process.  When the leader dies without
// releasing, its lease expires; a standby waits out the grace window,
// claims the next term, and promotes — replaying the store, resuming
// interrupted jobs from their checkpoints.
//
// A leader renews at TTL/3 and deposes itself when it cannot confirm a
// renewal within one TTL — before the standby's takeover point, which is
// one full TTL past expiry.  On promotion the controller also arms the
// store's fencing token (runstore.Fence), so even a leader stalled past
// both deadlines cannot mutate the store after a rival's claim: the
// write comes back runstore.ErrFenced, the server reports it via
// NoteFenced, and the controller deposes immediately instead of waiting
// for its next renew tick.  See runstore/lease.go and
// docs/ROBUSTNESS.md for the split-brain argument.
package ha

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/runstore"
	"repro/wmm/client"
)

// ErrDeposed reports that this controller was leader and lost the lease
// (another process holds a newer term, or renewal could not be confirmed
// within one TTL).  The process must stop serving immediately; the
// conservative reaction is to exit and restart as a standby.
var ErrDeposed = errors.New("ha: leadership lost")

// RoleStandby and RoleLeader are the values Controller.Role reports and
// /readyz exposes in its "role" field.
const (
	RoleStandby = "standby"
	RoleLeader  = "leader"
)

// Options configures a Controller.
type Options struct {
	// Store carries the coordinator lease.  Required.
	Store runstore.Storage
	// ID is this process's lease owner identity; it must differ between
	// the processes sharing a store.  Default "<hostname>-<pid>".
	ID string
	// TTL is the lease time-to-live.  The leader renews at TTL/3; a
	// standby takes over one full TTL after observing an expired lease.
	// Default 10s.
	TTL time.Duration
	// Poll is the standby's lease-watch interval.  Default TTL/3.
	Poll time.Duration
	// OnPromote builds the real API when this controller wins the
	// lease: typically NewServer + Restore + binding the public
	// address.  Its handler is served for every request from then on.
	// An error aborts Run — promotion is not retried, because a
	// half-promoted process (store replayed, runs resumed) cannot
	// safely retry without restarting.  Required.
	OnPromote func(ctx context.Context) (http.Handler, error)
	// Log receives role transitions; nil uses the standard logger.
	Log *log.Logger
	// Metrics, when non-nil, receives the wmm_ha_* instruments (role,
	// term, promotions, deposals by cause).  Pass the same registry the
	// engine exposes on /metrics so one scrape sees both.
	Metrics *metrics.Registry
}

// haMetrics are the controller's instruments; nil when no registry was
// supplied.
type haMetrics struct {
	leader     *metrics.Gauge   // 1 while leading, 0 as standby
	term       *metrics.Gauge   // lease term held, 0 as standby
	promotions *metrics.Counter // promotions to leader
	deposals   *metrics.Counter // leaderships lost, by cause
}

func newHAMetrics(r *metrics.Registry) *haMetrics {
	if r == nil {
		return nil
	}
	return &haMetrics{
		leader:     r.Gauge("wmm_ha_leader", "1 while this process holds the coordinator lease, 0 as standby."),
		term:       r.Gauge("wmm_ha_term", "Coordinator lease term currently held (0 while standby)."),
		promotions: r.Counter("wmm_ha_promotions_total", "Lease acquisitions that promoted this process to leader."),
		deposals:   r.Counter("wmm_ha_deposals_total", "Leaderships lost, by cause (superseded, renew_timeout, fenced).", "cause"),
	}
}

// Controller runs the standby→leader lifecycle for one process.
type Controller struct {
	store runstore.Storage
	id    string
	ttl   time.Duration
	poll  time.Duration
	promo func(ctx context.Context) (http.Handler, error)
	log   *log.Logger
	met   *haMetrics

	// fenced receives one signal per NoteFenced burst (buffered,
	// non-blocking sends); the renew loop selects on it to depose
	// without waiting for the next tick.
	fenced chan struct{}

	mu    sync.Mutex
	role  string
	term  int64
	inner http.Handler
}

// New validates the options and returns an unstarted Controller (role
// standby until Run promotes it).
func New(o Options) (*Controller, error) {
	if o.Store == nil {
		return nil, fmt.Errorf("ha: Options.Store is required")
	}
	if o.OnPromote == nil {
		return nil, fmt.Errorf("ha: Options.OnPromote is required")
	}
	if o.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "wmmd"
		}
		o.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.TTL <= 0 {
		o.TTL = 10 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = o.TTL / 3
	}
	if o.Log == nil {
		o.Log = log.Default()
	}
	return &Controller{
		store:  o.Store,
		id:     o.ID,
		ttl:    o.TTL,
		poll:   o.Poll,
		promo:  o.OnPromote,
		log:    o.Log,
		met:    newHAMetrics(o.Metrics),
		fenced: make(chan struct{}, 1),
		role:   RoleStandby,
	}, nil
}

// NoteFenced reports that a store mutation was refused by the fencing
// check (runstore.ErrFenced): the on-disk lease names a newer claim, so
// another process coordinates.  The controller deposes immediately
// instead of waiting for its next renew tick.  Safe to call from any
// goroutine, idempotent, a no-op while standing by.
func (c *Controller) NoteFenced() {
	select {
	case c.fenced <- struct{}{}:
	default:
	}
}

// Role reports "standby" or "leader".
func (c *Controller) Role() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// Term reports the lease term held (0 while standby).  Terms increase
// monotonically across takeovers, so they double as fencing tokens.
func (c *Controller) Term() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Run drives the lifecycle: poll the lease as standby, promote on
// acquisition, renew until deposed or the context ends.  It returns nil
// on a clean shutdown (context cancelled — a held lease is released so
// a standby can take over without waiting out the TTL), ErrDeposed on
// lost leadership, or the error that broke acquisition or promotion.
func (c *Controller) Run(ctx context.Context) error {
	lease, err := c.acquire(ctx)
	if err != nil {
		return err
	}

	// Arm the storage fence before a single request is served: from
	// here on every store mutation re-validates this (owner, term)
	// against the on-disk lease, so even a write from a leader stalled
	// past its own deposal deadline is refused once a rival claims.
	if err := c.store.Fence(c.id, lease.Term); err != nil {
		c.release(lease.Term, "fence arming failed")
		return fmt.Errorf("ha: arm fence: %w", err)
	}
	// Drop any fence signal left over from an earlier leadership of a
	// reused controller.
	select {
	case <-c.fenced:
	default:
	}

	c.log.Printf("ha: %s acquired coordinator lease (term %d), promoting", c.id, lease.Term)
	inner, err := c.promo(ctx)
	if err != nil {
		c.release(lease.Term, "promotion failed")
		return fmt.Errorf("ha: promotion failed: %w", err)
	}
	c.mu.Lock()
	c.role = RoleLeader
	c.term = lease.Term
	c.inner = inner
	c.mu.Unlock()
	if c.met != nil {
		c.met.leader.Set(1)
		c.met.term.Set(float64(lease.Term))
		c.met.promotions.Inc()
	}

	err = c.renewLoop(ctx, lease.Term)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Clean shutdown: hand the lease over instead of making the
		// standby wait out expiry + grace, and reset to standby so a
		// reused controller doesn't keep reporting leader state.
		c.release(lease.Term, "shutdown")
		c.depose("")
		return nil
	}
	return err
}

// release surrenders the lease and disarms the fence, logging a failed
// release rather than swallowing it — the standby then has to wait out
// expiry + grace, which an operator reading the logs should know.
func (c *Controller) release(term int64, why string) {
	if err := c.store.ReleaseLease(c.id, term); err != nil {
		c.log.Printf("ha: %s lease release (%s): %v", c.id, why, err)
	}
	c.store.Fence("", 0)
}

// acquire polls until this controller owns the lease or the context
// ends.
func (c *Controller) acquire(ctx context.Context) (runstore.CoordLease, error) {
	t := time.NewTicker(c.poll)
	defer t.Stop()
	logged := false
	for {
		lease, ok, err := c.store.TryAcquireLease(c.id, c.ttl)
		if err != nil {
			return runstore.CoordLease{}, fmt.Errorf("ha: lease acquisition: %w", err)
		}
		if ok {
			return lease, nil
		}
		if !logged {
			c.log.Printf("ha: %s standing by (leader %s, term %d)", c.id, lease.Owner, lease.Term)
			logged = true
		}
		select {
		case <-ctx.Done():
			return runstore.CoordLease{}, ctx.Err()
		case <-t.C:
		}
	}
}

// renewLoop keeps the lease alive, returning ErrDeposed the moment
// leadership cannot be proven: an explicit refusal, or no confirmed
// renewal within one TTL (store I/O failing while the clock runs out —
// the standby may already be taking over).
func (c *Controller) renewLoop(ctx context.Context, term int64) error {
	t := time.NewTicker(c.ttl / 3)
	defer t.Stop()
	lastOK := time.Now()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.fenced:
			c.log.Printf("ha: %s deposed (store mutation fenced: term %d superseded on disk)", c.id, term)
			c.depose("fenced")
			return ErrDeposed
		case <-t.C:
		}
		_, ok, err := c.store.RenewLease(c.id, term, c.ttl)
		switch {
		case err == nil && ok:
			lastOK = time.Now()
		case err == nil:
			c.log.Printf("ha: %s deposed (term %d superseded)", c.id, term)
			c.depose("superseded")
			return ErrDeposed
		default:
			if time.Since(lastOK) > c.ttl {
				c.log.Printf("ha: %s deposed (no confirmed renewal in %v: %v)", c.id, c.ttl, err)
				c.depose("renew_timeout")
				return ErrDeposed
			}
			c.log.Printf("ha: %s renew failed (retrying): %v", c.id, err)
		}
	}
}

// depose resets the controller to standby — role, term AND handler, so
// Term()'s "0 while standby" contract holds after deposal too.  cause
// is the deposal-counter label; empty for a clean shutdown, which is a
// reset rather than a lost leadership.
func (c *Controller) depose(cause string) {
	c.mu.Lock()
	c.role = RoleStandby
	c.term = 0
	c.inner = nil
	c.mu.Unlock()
	if c.met != nil {
		c.met.leader.Set(0)
		c.met.term.Set(0)
		if cause != "" {
			c.met.deposals.Inc(cause)
		}
	}
}

// Handler returns the controller's HTTP surface, serveable from the
// moment the process starts:
//
//   - /healthz answers 200 always — the process is alive either way.
//   - /readyz answers the leader's own readiness once promoted, and
//     503 {"ready": false, "role": "standby"} before that.
//   - every other path delegates to the promoted API, or answers 503
//     with the standard "unavailable" envelope while standby — workers
//     and clients ride that out with their retry/backoff.
func (c *Controller) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		inner := c.inner
		c.mu.Unlock()
		switch {
		case r.URL.Path == "/healthz":
			if inner != nil {
				inner.ServeHTTP(w, r)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": RoleStandby})
		case r.URL.Path == "/readyz":
			if inner != nil {
				inner.ServeHTTP(w, r)
				return
			}
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ready": false,
				"role":  RoleStandby,
			})
		default:
			if inner != nil {
				inner.ServeHTTP(w, r)
				return
			}
			writeJSON(w, http.StatusServiceUnavailable, client.ErrorEnvelope{Error: client.ErrorBody{
				Code:    "unavailable",
				Message: "standby coordinator: not the leader",
			}})
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
