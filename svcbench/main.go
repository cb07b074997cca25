// Command svcbench is the service benchmark: it starts the wmmd serving
// stack in-process, sized to one core, and drives one closed-loop
// workload through wmm/client over loopback HTTP.  Every job's output is
// checked; the last line of standard output is a JSON result.
//
// Usage (from the repository root; see svcbench/README.md):
//
//	bash svcbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
//	bash svcbench/run.sh --smoke
//
// --trace 0 measures the end-to-end metrics.  --trace 1 splits the
// window into an untraced half and a traced half and reports per-layer
// metrics from the traced half, with spans written under --work-dir.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names and units in the same order.  The 90th percentile is
// printed per phase but is not among them: on a host that steals cycles
// in bursts it moved up to 32% between runs, more than any bound allows.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"explore.runs_per_job", "count"},
	{"explore.states_per_job", "count"},
	{"explore.us_per_run", "us"},
	{"optimize.gate_ms_per_job", "ms"},
	{"optimize.score_ms_per_job", "ms"},
	{"optimize.overhead_ms_per_job", "ms"},
	{"engine.samples_per_job", "count"},
	{"engine.sample_ms", "ms"},
	{"engine.queue_wait_ms_per_job", "ms"},
	{"engine.calibration_misses_per_job", "count"},
	{"experiments.self_ms_per_job", "ms"},
	{"litmus.trials_per_job", "count"},
	{"litmus.us_per_trial", "us"},
	{"worker.exec_ms_per_job", "ms"},
	{"worker.lease_calls_per_job", "count"},
	{"worker.empty_lease_ratio", "ratio"},
	{"worker.wire_ms_per_job", "ms"},
	{"worker.upload_kb_per_job", "KiB"},
	{"dispatch.requeues_per_job", "count"},
	{"http.requests_per_job", "count"},
	{"http.status_polls_per_job", "count"},
	{"http.server_ms_per_job", "ms"},
	{"client.ms_per_job", "ms"},
	{"client.self_ms_per_job", "ms"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.stores_per_job", "count"},
	{"runstore.ops_per_job", "count"},
	{"runstore.ms_per_job", "ms"},
	{"runstore.kb_per_job", "KiB"},
	{"go.alloc_mb_per_job", "MiB"},
	{"go.gc_cpu_ms_per_job", "ms"},
	{"trace.overhead_pct", "%"},
}

// config is one benchmark run.
type config struct {
	w       *workload
	seed    int64
	window  time.Duration // timed window (split in halves when tracing)
	trace   bool
	setups  int // set-ups timed; the last one's stack serves the window
	jobs    int // > 0: a fixed number of jobs per phase instead of the window
	workDir string
	start   time.Time // process start, where the first set-up's clock starts
}

// phase is one closed-loop stretch of jobs on a stack.
type phase struct {
	lat               []float64 // latency of each checked job, ms
	work              []counts  // API counts of each checked job
	attempted, failed int
	errs              []string
	start, end        time.Time
	cpu               time.Duration
	goAlloc, goGCCPU  float64
	regBefore         snapshot
	regAfter          snapshot
	steal             int64  // host steal ticks over the phase; -1 unknown
	replay            replay // explore: cells replayed after each traced job
}

// result is everything one run reports.
type result struct {
	setup     []time.Duration
	digests   []string
	phases    []*phase // untraced, then (trace) traced
	metrics   map[string]float64
	checks    []string
	problems  []string
	spansPath string
}

func main() {
	start := time.Now()
	// One process, one core: the client, server, engine and worker share
	// a single P, so run-to-run spread stays within a few percent.
	runtime.GOMAXPROCS(1)

	name := flag.String("workload", "", "workload: explore, sweep, campaign or resubmit")
	seed := flag.Int64("seed", 1, "seed every job's inputs derive from")
	seconds := flag.Float64("seconds", 15, "timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := flag.String("work-dir", ".bench_build/svcbench-work", "directory for run stores and span files")
	smoke := flag.Bool("smoke", false, "run two jobs per workload, traced and untraced, and check every metric name and unit")
	flag.Parse()

	if *smoke {
		var ws []*workload
		if *name != "" {
			ws = []*workload{workloadByName(*name)}
		}
		if err := runSmoke(os.Stdout, ws, *workDir, "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "svcbench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "svcbench: need --workload explore|sweep|campaign|resubmit, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	c := config{
		w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, setups: setups, workDir: *workDir, start: start,
	}
	res, err := runBench(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, c, res); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
}

// setups is how many set-ups a run times; setup_s is their median, so
// work moved into set-up shows in a steady figure.
const setups = 3

// deadline bounds a whole run, so a wedged job cannot hold the process
// past the three minutes a run may take.
const deadline = 170 * time.Second

// runBench sets up c.setups times, then runs the timed phases on the
// last stack.
func runBench(c config) (*result, error) {
	ctx, cancel := context.WithDeadline(context.Background(), c.start.Add(deadline))
	defer cancel()
	w := c.w
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	res := &result{}
	var st *stack
	var ref jobOut
	for i := 0; i < c.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = c.start
		}
		dir := filepath.Join(c.workDir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		s, err := newStack(dir, w, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		out, err := w.do(ctx, s.client, w, jobSeed(c.seed, w.name, 0), nil)
		if err == nil {
			err = w.remove(ctx, s.client, out.id)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("set-up %d job: %w", i, err)
		}
		res.setup = append(res.setup, time.Since(t0))
		sum := sha256.Sum256(out.canonical)
		res.digests = append(res.digests, hex.EncodeToString(sum[:]))
		ref = jobOut{canonical: out.canonical, counts: out.counts}
		if i < c.setups-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("set-up %d teardown: %w", i, err)
			}
			continue
		}
		st = s
	}
	for _, d := range res.digests[1:] {
		if d != res.digests[0] {
			res.problems = append(res.problems, "set-up jobs of one seed produced different canonical outputs")
			break
		}
	}
	runtime.GC()

	window := c.window
	if c.trace {
		window /= 2
	}
	untraced, err := runPhase(ctx, st, c, window, &ref, 1, nil)
	if err == nil {
		res.phases = append(res.phases, untraced)
	}
	if err == nil && c.trace {
		tr.on.Store(true)
		var traced *phase
		traced, err = runPhase(ctx, st, c, window, &ref, 1+untraced.attempted, tr)
		tr.on.Store(false)
		if err == nil {
			res.phases = append(res.phases, traced)
		}
	}
	if cerr := st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	res.metrics = map[string]float64{}
	if !c.trace {
		p := untraced
		setupS := make([]float64, len(res.setup))
		for i, d := range res.setup {
			setupS[i] = d.Seconds()
		}
		res.metrics["setup_s"] = median(setupS)
		res.metrics["job_p50_ms"] = percentile(p.lat, 0.5)
		res.metrics["jobs_per_s"] = float64(len(p.lat)) / p.end.Sub(p.start).Seconds()
		res.metrics["cpu_ms_per_job"] = ms(p.cpu) / float64(p.attempted)
		res.metrics["rss_mb"] = peakRSSMB()
		return res, nil
	}

	traced := res.phases[1]
	spans := tr.snapshot()
	res.metrics = layerMetrics(traced, spans, tr, median(untraced.lat))
	res.checks = dominantChecks(w, res.metrics, mean(traced.lat))
	res.spansPath = filepath.Join(c.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, c.seed))
	if err := tr.write(res.spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// runPhase drives the closed loop: one job at a time — submit, poll,
// fetch and check the canonical output, then delete — until the window
// has passed (at least one job) or c.jobs jobs ran.  first numbers the
// phase's first job; job 0 is the set-up job.
func runPhase(ctx context.Context, st *stack, c config, window time.Duration, ref *jobOut, first int, tr *tracer) (*phase, error) {
	w := c.w
	p := &phase{}
	reg := st.eng.Metrics()
	p.regBefore = readRegistry(reg)
	g0, steal0, cpu0 := readGoStats(), stealTicks(), cpuTime()
	var replayCPU time.Duration
	var replayGo goStats
	p.start = time.Now()
	for i := 0; ; i++ {
		if c.jobs > 0 && i >= c.jobs || c.jobs == 0 && i > 0 && time.Since(p.start) >= window {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("run deadline passed after %d jobs", p.attempted)
		}
		job := first + i
		seed := jobSeed(c.seed, w.name, job)
		if w.resubmit {
			seed = jobSeed(c.seed, w.name, 0)
		}
		jctx := ctx
		var root span
		if tr != nil {
			root = span{ID: tr.nextID.Add(1), Name: "job", Job: job, Start: tr.now()}
			tr.cur.Store(int64(job))
			jctx = withJob(ctx, jobCtx{job: job, span: root.ID})
		}
		t0 := time.Now()
		out, err := w.do(jctx, st.client, w, seed, ref)
		lat := time.Since(t0)
		if tr != nil {
			root.End = tr.now()
			tr.record(root)
		}
		p.attempted++
		if err == nil && tr != nil && out.report != nil {
			c0, gs := cpuTime(), readGoStats()
			var r replay
			r, err = replayCells(ctx, tr, job, out.report)
			if err == nil && r.runs != out.counts.Runs {
				err = fmt.Errorf("replayed gate explored %d runs, the job %d", r.runs, out.counts.Runs)
			}
			p.replay.gate += r.gate
			p.replay.score += r.score
			p.replay.runs += r.runs
			ge := readGoStats()
			replayCPU += cpuTime() - c0
			replayGo.allocBytes += ge.allocBytes - gs.allocBytes
			replayGo.gcCPU += ge.gcCPU - gs.gcCPU
		}
		if out.id != "" {
			if derr := w.remove(jctx, st.client, out.id); derr != nil && err == nil {
				err = fmt.Errorf("delete %s: %w", out.id, derr)
			}
		}
		if err != nil {
			p.failed++
			if len(p.errs) < 5 {
				p.errs = append(p.errs, fmt.Sprintf("job %d: %v", job, err))
			}
			continue
		}
		p.lat = append(p.lat, ms(lat))
		p.work = append(p.work, out.counts)
	}
	p.end = time.Now()
	p.cpu = cpuTime() - cpu0 - replayCPU
	g1 := readGoStats()
	p.goAlloc = g1.allocBytes - g0.allocBytes - replayGo.allocBytes
	p.goGCCPU = g1.gcCPU - g0.gcCPU - replayGo.gcCPU
	p.regAfter = readRegistry(reg)
	p.steal = -1
	if s1 := stealTicks(); steal0 >= 0 && s1 >= 0 {
		p.steal = s1 - steal0
	}
	return p, nil
}

// report prints the human-readable report, then the JSON result as the
// last line.
func report(out io.Writer, c config, res *result) error {
	w := c.w
	host := readHost()
	fmt.Fprintf(out, "svcbench workload=%s seed=%d window_s=%g trace=%v engine=%s\n",
		w.name, c.seed, c.window.Seconds(), c.trace, engine.EngineVersion)
	fmt.Fprintf(out, "host cpu_model=%q nproc=%d gomaxprocs=%d go=%s\n", host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion)
	fmt.Fprintf(out, "fingerprint workload=%s seed=%d sha256=%s setups=%d\n", w.name, c.seed, res.digests[0], len(res.digests))
	setups := make([]string, len(res.setup))
	for i, d := range res.setup {
		setups[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	fmt.Fprintf(out, "setup_runs_s %s\n", strings.Join(setups, " "))

	attempted, failed := 0, 0
	for i, p := range res.phases {
		label := "untraced"
		if i == 1 {
			label = "traced"
		}
		attempted += p.attempted
		failed += p.failed
		// Replays run outside every job; leave them out of the window.
		win := p.end.Sub(p.start) - p.replay.gate - p.replay.score
		cpu := ms(p.cpu)
		fmt.Fprintf(out, "phase %s jobs=%d failed=%d error_rate=%g window_s=%.3f p50_ms=%.3f p90_ms=%.3f cores_used=%.3f\n",
			label, p.attempted, p.failed, ratio(float64(p.failed), float64(p.attempted)), win.Seconds(),
			percentile(p.lat, 0.5), percentile(p.lat, 0.9), cpu/1e3/win.Seconds())
		if p.steal >= 0 {
			// /proc/stat counts in USER_HZ ticks of 10ms across all CPUs.
			stealMs := float64(p.steal) * 10
			fmt.Fprintf(out, "noise %s steal_ms=%.0f steal_pct=%.2f\n", label, stealMs,
				100*stealMs/(ms(p.end.Sub(p.start))*float64(host.NProc)))
		}
		for _, e := range p.errs {
			fmt.Fprintf(out, "error %s %s\n", label, e)
		}
	}
	for _, ch := range res.checks {
		fmt.Fprintf(out, "check %s %s\n", w.name, ch)
	}
	for _, pr := range res.problems {
		fmt.Fprintf(out, "problem %s\n", pr)
	}
	if res.spansPath != "" {
		fmt.Fprintf(out, "spans %s\n", res.spansPath)
	}

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) {
			v = 0 // no job passed its checks; correct is false
		}
		fmt.Fprintf(out, "metric %s %g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && len(res.problems) == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runSmoke runs two jobs per workload, untraced and traced, and checks
// that every metric is printed by name with its unit — against the
// catalogue above and, when present, the BENCHMARK.json at benchPath.
func runSmoke(out io.Writer, ws []*workload, workDir, benchPath string) error {
	if len(ws) == 0 || ws[0] == nil {
		ws = workloads
	}
	want := map[bool][]metricDef{false: endToEnd, true: perLayer}
	if data, err := os.ReadFile(benchPath); err == nil {
		e2e, layers, err := benchmarkMetrics(data)
		if err != nil {
			return err
		}
		if !sameDefs(e2e, endToEnd) || !sameDefs(layers, perLayer) {
			return fmt.Errorf("%s lists other metrics than the benchmark reports", benchPath)
		}
	}
	for _, w := range ws {
		for _, trace := range []bool{false, true} {
			c := config{w: w, seed: 1, trace: trace, setups: 1, jobs: 2, workDir: workDir, start: time.Now()}
			res, err := runBench(c)
			if err != nil {
				return fmt.Errorf("smoke %s trace=%v: %w", w.name, trace, err)
			}
			var buf strings.Builder
			if err := report(&buf, c, res); err != nil {
				return fmt.Errorf("smoke %s trace=%v: %w", w.name, trace, err)
			}
			if err := checkPrinted(buf.String(), want[trace]); err != nil {
				return fmt.Errorf("smoke %s trace=%v: %w", w.name, trace, err)
			}
			fmt.Fprintf(out, "smoke %s trace=%v ok\n", w.name, trace)
		}
	}
	return nil
}

// checkPrinted verifies a report: the metric lines and the final JSON
// object carry exactly the wanted names with their units, and every
// job passed its checks.
func checkPrinted(text string, want []metricDef) error {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return fmt.Errorf("last line is not the JSON result: %w", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		return fmt.Errorf("result correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}
	printed := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	if len(last.Metrics) != len(want) || len(printed) != len(want) {
		return fmt.Errorf("report prints %d metrics and the result has %d, want %d", len(printed), len(last.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := last.Metrics[d.name]
		if !ok || m.Value == nil || m.Unit != d.unit {
			return fmt.Errorf("result lacks %s in %s", d.name, d.unit)
		}
		if printed[d.name] != d.unit {
			return fmt.Errorf("report does not print %s in %s", d.name, d.unit)
		}
	}
	return nil
}

// benchmarkMetrics reads the metric lists of a BENCHMARK.json.
func benchmarkMetrics(data []byte) (e2e, layers []metricDef, err error) {
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, err
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, nil, errors.New("BENCHMARK.json lists no metrics")
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	return e2e, layers, nil
}

func sameDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
