package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/optimize"
)

// replay is the explore workload's traced per-cell timing: each traced
// job's gate and score cells run again through engine.RunOptimizeCell,
// outside the job's latency.
type replay struct {
	gate, score time.Duration
	runs        int
}

// replayCells re-executes a finished optimizer job's cells from its
// normalised spec, one "cell" span each.
func replayCells(ctx context.Context, tr *tracer, job int, rep *optimize.Report) (replay, error) {
	var r replay
	sp := rep.Spec
	gates, err := sp.GateCells()
	if err != nil {
		return r, err
	}
	sound := map[string]bool{}
	for _, c := range rep.Candidates {
		sound[c.Name] = c.Sound
	}
	score, err := sp.ScoreCells(sound)
	if err != nil {
		return r, err
	}
	for _, c := range append(gates, score...) {
		s := span{ID: tr.nextID.Add(1), Name: "cell", Job: job, Detail: c.Name(), Start: tr.now()}
		res, err := engine.RunOptimizeCell(ctx, c)
		s.End = tr.now()
		tr.record(s)
		if err != nil {
			return r, err
		}
		if res.Status != engine.StatusOK {
			return r, fmt.Errorf("replay %s: %s", c.Name(), res.Err)
		}
		if c.Kind == "gate" {
			r.gate += s.dur()
			r.runs += res.Samples // a gate cell reports its explorer runs as samples
		} else {
			r.score += s.dur()
		}
	}
	return r, nil
}

// attachStoreSpans makes each store call a child of the innermost
// handler span of the same job that encloses it; calls made outside any
// request (a run's background checkpoints) keep no parent.
func attachStoreSpans(spans []span) {
	for i := range spans {
		s := &spans[i]
		if s.Name != "store" || s.Parent != 0 {
			continue
		}
		var best *span
		for j := range spans {
			h := &spans[j]
			if h.Name == "http" && h.Job == s.Job && h.Start <= s.Start && s.End <= h.End && (best == nil || h.Start > best.Start) {
				best = h
			}
		}
		if best != nil {
			s.Parent = best.ID
		}
	}
}

// layerMetrics derives the per-layer metrics of a traced phase from its
// spans, the program's counters read before and after, and the API
// counts of its jobs.  Every figure is per checked job.
func layerMetrics(p *phase, spans []span, tr *tracer, untracedP50 float64) map[string]float64 {
	n := float64(len(p.lat))
	m := map[string]float64{}
	before, after := p.regBefore, p.regAfter
	d := func(name string, labels ...string) float64 { return delta(before, after, name, labels...) }

	var work counts
	for _, c := range p.work {
		work.Runs += c.Runs
		work.States += c.States
		work.Trials += c.Trials
	}
	var latSum float64
	for _, l := range p.lat {
		latSum += l
	}
	meanLat := ratio(latSum, n)

	m["explore.runs_per_job"] = ratio(float64(work.Runs), n)
	m["explore.states_per_job"] = ratio(float64(work.States), n)
	m["explore.us_per_run"] = ratio(float64(p.replay.gate)/1e3, float64(p.replay.runs))
	m["optimize.gate_ms_per_job"] = ratio(ms(p.replay.gate), n)
	m["optimize.score_ms_per_job"] = ratio(ms(p.replay.score), n)
	if p.replay.runs > 0 {
		m["optimize.overhead_ms_per_job"] = meanLat - ratio(ms(p.replay.gate+p.replay.score), n)
	} else {
		m["optimize.overhead_ms_per_job"] = 0
	}

	sampleSum := d("wmm_engine_sample_run_seconds_sum")
	m["engine.samples_per_job"] = ratio(d("wmm_engine_jobs_executed_total"), n)
	m["engine.sample_ms"] = ratio(sampleSum*1e3, d("wmm_engine_sample_run_seconds_count"))
	m["engine.queue_wait_ms_per_job"] = ratio(d("wmm_engine_job_queue_wait_seconds_sum")*1e3, n)
	m["engine.calibration_misses_per_job"] = ratio(d("wmm_engine_calibration_cache_misses_total"), n)
	if exp := d("wmm_engine_experiment_seconds_sum"); exp > 0 {
		m["experiments.self_ms_per_job"] = ratio((exp-sampleSum)*1e3, n)
	} else {
		m["experiments.self_ms_per_job"] = 0
	}

	var exec, wire time.Duration
	var uploadBytes int64
	var client, clientSelf, store time.Duration
	var storeOps, storeBytes int64
	attachStoreSpans(spans)
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "worker.exec":
			exec += s.dur()
		case "worker.lease", "worker.heartbeat":
			wire += s.dur()
		case "worker.upload":
			wire += s.dur()
			uploadBytes += s.Bytes
		case "client":
			client += s.dur()
			clientSelf += self[s.ID]
		case "store":
			store += s.dur()
			storeOps++
			storeBytes += s.Bytes
		}
	}
	m["litmus.trials_per_job"] = ratio(float64(work.Trials), n)
	m["litmus.us_per_trial"] = ratio(float64(exec)/1e3, float64(work.Trials))
	m["worker.exec_ms_per_job"] = ratio(ms(exec), n)
	tr.mu.Lock()
	leases := tr.leases
	tr.mu.Unlock()
	m["worker.lease_calls_per_job"] = ratio(float64(leases.calls), n)
	m["worker.empty_lease_ratio"] = ratio(float64(leases.empty), float64(leases.calls))
	m["worker.wire_ms_per_job"] = ratio(ms(wire), n)
	m["worker.upload_kb_per_job"] = ratio(float64(uploadBytes)/1024, n)

	m["dispatch.requeues_per_job"] = ratio(d("wmm_dispatch_requeues_total"), n)

	var statusGets float64
	for _, kind := range []string{"runs", "litmus", "optimize"} {
		statusGets += d("wmm_http_requests_total", `method="GET"`, `path="/api/v1/`+kind+`/{id}"`)
	}
	m["http.requests_per_job"] = ratio(d("wmm_http_requests_total"), n)
	// One GET per attempted job fetches the canonical output; the rest
	// are status polls.
	m["http.status_polls_per_job"] = ratio(statusGets-float64(p.attempted), n)
	m["http.server_ms_per_job"] = ratio(d("wmm_http_request_seconds_sum")*1e3, n)

	m["client.ms_per_job"] = ratio(ms(client), n)
	m["client.self_ms_per_job"] = ratio(ms(clientSelf), n)

	hits := d("wmm_resultcache_hits_total")
	m["resultcache.hit_ratio"] = ratio(hits, hits+d("wmm_resultcache_misses_total"))
	m["resultcache.stores_per_job"] = ratio(d("wmm_resultcache_stores_total"), n)

	m["runstore.ops_per_job"] = ratio(float64(storeOps), n)
	m["runstore.ms_per_job"] = ratio(ms(store), n)
	m["runstore.kb_per_job"] = ratio(float64(storeBytes)/1024, n)

	m["go.alloc_mb_per_job"] = ratio(p.goAlloc/(1<<20), n)
	m["go.gc_cpu_ms_per_job"] = ratio(p.goGCCPU*1e3, n)

	m["trace.overhead_pct"] = (ratio(median(p.lat), untracedP50) - 1) * 100
	return m
}

// dominantChecks reports whether the traced run shows the workload's
// designed dominant layer.  They are diagnostics: host noise can move a
// share, so they do not decide correctness.
func dominantChecks(w *workload, m map[string]float64, meanLatMs float64) []string {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	var out []string
	switch w.name {
	case "explore":
		share := ratio(m["optimize.gate_ms_per_job"], meanLatMs)
		out = append(out, fmt.Sprintf("gate_share %.3f (want >= 0.60) %s", share, verdict(share >= 0.6)))
	case "sweep":
		share := ratio(m["engine.samples_per_job"]*m["engine.sample_ms"], meanLatMs)
		out = append(out, fmt.Sprintf("sample_share %.3f (want >= 0.80) %s", share, verdict(share >= 0.8)))
	case "campaign":
		ok := m["worker.exec_ms_per_job"] > 0 && m["worker.wire_ms_per_job"] > 0
		out = append(out, fmt.Sprintf("worker_exec_and_wire_nonzero %s", verdict(ok)))
	case "resubmit":
		ok := m["resultcache.hit_ratio"] == 1 && m["engine.samples_per_job"] == 0 && m["explore.runs_per_job"] == 0
		out = append(out, fmt.Sprintf("all_hits_no_samples_no_runs %s", verdict(ok)))
	}
	if w.name != "explore" {
		ok := m["optimize.gate_ms_per_job"] == 0
		out = append(out, fmt.Sprintf("no_gate_time %s", verdict(ok)))
	}
	return out
}
