// Package worker is the execution side of the sharded backend: a loop
// that leases batches of cells — experiments, shards of generated litmus
// campaigns, or fence-optimizer cells — from a wmmd coordinator over
// the v1 API, executes them on a local engine, and uploads the results.
//
// The loop is deliberately stateless between batches.  All durability
// lives on the coordinator: if a worker dies mid-batch its lease
// expires and the coordinator re-queues the cells, and because every
// cell is fully determined by its descriptor via positional seed
// derivation, whichever process eventually executes it produces
// byte-identical results.  A worker therefore never needs to hand off
// partial state — it just stops heartbeating.
package worker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/engine"
	"repro/wmm/client"
)

// Config parameterises one worker loop.
type Config struct {
	// Coordinator is the wmmd base URL (used only if Client is nil).
	Coordinator string
	// ID identifies this worker in assignment records and coordinator
	// logs; required.
	ID string
	// MaxBatch caps the jobs requested per lease (0 = the
	// coordinator's default batch size).
	MaxBatch int
	// Poll is the idle interval between lease attempts when the queue
	// is empty (default 500ms).
	Poll time.Duration
	// Engine executes the jobs; required.
	Engine *engine.Engine
	// Client overrides the API client (tests, custom transports).
	Client *client.Client
	// Log receives progress lines; nil discards them.
	Log *log.Logger
}

// Run leases and executes jobs until ctx is cancelled.  Transient
// coordinator errors (unreachable, 5xx) back off and retry; the only
// non-nil return is ctx's error.
func Run(ctx context.Context, cfg Config) error {
	if cfg.ID == "" {
		return fmt.Errorf("worker: Config.ID is required")
	}
	if cfg.Engine == nil {
		return fmt.Errorf("worker: Config.Engine is required")
	}
	cl := cfg.Client
	if cl == nil {
		if cfg.Coordinator == "" {
			return fmt.Errorf("worker: Config.Coordinator or Config.Client is required")
		}
		cl = client.New(cfg.Coordinator)
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := cl.Lease(ctx, cfg.ID, cfg.MaxBatch)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			logger.Printf("worker %s: lease: %v (backing off)", cfg.ID, err)
			if !sleep(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		if grant.LeaseID == "" || len(grant.Jobs) == 0 {
			if !sleep(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		runBatch(ctx, cl, cfg.ID, cfg.Engine, grant, logger)
	}
}

// runBatch executes one leased batch under a heartbeat, then settles
// the lease with whatever completed.
func runBatch(ctx context.Context, cl *client.Client, id string, eng *engine.Engine, grant client.LeaseGrant, logger *log.Logger) {
	// Heartbeat at TTL/3 for the life of the batch.  If the coordinator
	// reports the lease gone (expired, coordinator restart), the batch is
	// aborted: its jobs were already re-queued, so finishing them here
	// would only produce a moot upload.
	batchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	leaseGone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := grant.TTL() / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-batchCtx.Done():
				return
			case <-t.C:
				if _, err := cl.Heartbeat(batchCtx, grant.LeaseID); err != nil {
					if batchCtx.Err() != nil {
						return
					}
					var apiErr *client.Error
					if errors.As(err, &apiErr) && apiErr.Status == 410 {
						logger.Printf("worker %s: lease %s gone; abandoning batch", id, grant.LeaseID)
						close(leaseGone)
						cancel()
						return
					}
					// Transient heartbeat failure: keep the batch running
					// and try again next tick — the TTL gives us slack.
					logger.Printf("worker %s: heartbeat %s: %v", id, grant.LeaseID, err)
				}
			}
		}
	}()

	results := make([]client.JobResult, 0, len(grant.Jobs))
	for _, job := range grant.Jobs {
		if batchCtx.Err() != nil {
			break
		}
		logger.Printf("worker %s: executing %s/%s", id, job.RunID, job.Experiment)
		res, err := eng.RunCell(batchCtx, job.Kind, job.Cell)
		if err != nil {
			// An unknown kind or experiment, or a malformed descriptor — a
			// protocol-level mismatch, not an execution failure.  Skip it;
			// the coordinator re-queues.
			logger.Printf("worker %s: %s/%s: %v", id, job.RunID, job.Experiment, err)
			continue
		}
		if res.Status == engine.StatusCancelled && batchCtx.Err() != nil {
			// Aborted by shutdown or lease loss, not by the experiment:
			// don't upload a cancellation the coordinator will re-run.
			break
		}
		raw, err := json.Marshal(res)
		if err != nil {
			logger.Printf("worker %s: marshal %s/%s result: %v", id, job.RunID, job.Experiment, err)
			continue
		}
		results = append(results, client.JobResult{RunID: job.RunID, Experiment: job.Experiment, Result: raw})
	}

	cancel()
	<-hbDone
	select {
	case <-leaseGone:
		return // jobs already re-queued; the upload would be rejected anyway
	default:
	}
	if len(results) == 0 && ctx.Err() != nil {
		return
	}
	// Settle with the parent context: shutdown should still flush
	// finished work if the coordinator is reachable.
	upCtx, upCancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer upCancel()
	ack, err := cl.UploadResults(upCtx, grant.LeaseID, results)
	if err != nil {
		logger.Printf("worker %s: upload lease %s: %v", id, grant.LeaseID, err)
		return
	}
	logger.Printf("worker %s: lease %s settled: %d accepted, %d requeued",
		id, grant.LeaseID, ack.Accepted, ack.Requeued)
}

// sleep waits for d or ctx, reporting whether the full wait elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
