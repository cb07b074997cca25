package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/runstore"
	"repro/internal/worker"
	"repro/wmm/client"
)

// workerPoll is the in-process worker's idle interval between lease
// attempts, small against a campaign job (about a quarter second).
const workerPoll = time.Millisecond

// stack is one in-process wmmd serving stack, assembled as cmd/wmmd
// does from public constructors only: one engine worker, a result cache
// persisted to a segment run store (durable workloads), one execution
// slot, and (remote workloads) a single-threaded in-process worker
// instead of the local slot.
type stack struct {
	dir    string
	store  runstore.Storage // nil when the workload is not durable
	eng    *engine.Engine
	api    *engine.Server
	http   *http.Server
	base   string // the server's loopback URL
	client *client.Client
	idle   func() // closes the client's idle connections

	workerEng  *engine.Engine
	stopWorker context.CancelFunc
	workerDone chan struct{}
	workerIdle func()
}

// newStack builds w's stack; a durable workload's store lives under
// dir.  With tr non-nil the store, the handler and both clients are
// wrapped for tracing.
func newStack(dir string, w *workload, tr *tracer) (*stack, error) {
	st := &stack{dir: dir}
	if w.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		seg, err := runstore.OpenBackend(runstore.KindSegment, dir)
		if err != nil {
			return nil, err
		}
		st.store = seg
		if tr != nil {
			st.store = &tracedStore{Storage: seg, tr: tr}
		}
	}

	// The same settings cmd/wmmd applies by default, sized to one core.
	st.eng = engine.New(engine.Options{
		Workers:       1,
		SampleTimeout: 5 * time.Minute,
		Retry:         engine.RetryPolicy{Max: 2},
		Registry:      metrics.NewRegistry(),
	})
	cache := resultcache.New(resultcache.Options{MaxEntries: 256, Registry: st.eng.Metrics(), Persist: st.store})
	slots := 1
	if w.remote {
		slots = -1
	}
	st.api = engine.NewServer(st.eng, engine.ServerOptions{
		Parallel:    1,
		Retain:      24 * time.Hour,
		CacheRetain: 7 * 24 * time.Hour,
		Store:       st.store,
		Dispatch: &engine.DispatchOptions{
			LocalSlots: slots,
			LeaseTTL:   15 * time.Second,
			MaxBatch:   4,
			MaxQueue:   1024,
			Cache:      cache,
		},
	})
	if _, _, err := st.api.Restore(); err != nil {
		st.close()
		return nil, fmt.Errorf("restore: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	h := st.api.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	st.http = &http.Server{Handler: h}
	go st.http.Serve(ln)
	base := "http://" + ln.Addr().String()
	st.base = base

	// One sequential client, so one keep-alive connection.
	cl, idle := newHTTPClient(tr, false)
	st.client = client.New(base, client.WithHTTPClient(cl))
	st.idle = idle

	if w.remote {
		st.workerEng = engine.New(engine.Options{Workers: 1, Registry: metrics.NewRegistry()})
		wcl, widle := newHTTPClient(tr, true)
		st.workerIdle = widle
		ctx, cancel := context.WithCancel(context.Background())
		st.stopWorker, st.workerDone = cancel, make(chan struct{})
		go func() {
			defer close(st.workerDone)
			worker.Run(ctx, worker.Config{
				ID:       "svcbench-worker",
				MaxBatch: 4,
				Poll:     workerPoll,
				Engine:   st.workerEng,
				Client:   client.New(base, client.WithHTTPClient(wcl)),
				Log:      log.New(io.Discard, "", 0),
			})
		}()
	}
	return st, nil
}

// newHTTPClient returns an http.Client on its own transport, traced
// when tr is non-nil, and a func closing its idle connections.
func newHTTPClient(tr *tracer, isWorker bool) (*http.Client, func()) {
	base := &http.Transport{}
	var rt http.RoundTripper = base
	switch {
	case tr != nil && isWorker:
		rt = &workerTransport{base: base, tr: tr}
	case tr != nil:
		rt = &clientTransport{base: base, tr: tr}
	}
	return &http.Client{Transport: rt}, base.CloseIdleConnections
}

// close tears the stack down in cmd/wmmd's shutdown order — runs, then
// HTTP, then the engines — and removes its store.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var errs []error
	if st.stopWorker != nil {
		st.stopWorker()
		<-st.workerDone
		st.workerIdle()
	}
	if st.api != nil {
		errs = append(errs, st.api.Shutdown(ctx))
	}
	if st.http != nil {
		errs = append(errs, st.http.Shutdown(ctx))
	}
	if st.idle != nil {
		st.idle()
	}
	st.eng.Close()
	if st.workerEng != nil {
		st.workerEng.Close()
	}
	if st.store != nil {
		errs = append(errs, st.store.Close())
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}
