package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"repro/internal/optimize"
	"repro/wmm/client"
)

// counts is the work a job did, as the API reports it.  Every job of a
// workload has the same shape, so its counts equal the set-up job's.
type counts struct {
	Runs    int // explorer runs over every gate outcome
	States  int // explorer states over every gate outcome
	Samples int // samples the results report
	Trials  int // litmus trials
}

// jobOut is what one checked job established.
type jobOut struct {
	id        string
	canonical []byte
	counts    counts
	report    *optimize.Report // explore: the decoded report, replayed when traced
}

// workload is one closed-loop job stream.  Within a workload every job
// has the same shape; only seeds vary, and they derive from --seed.
type workload struct {
	name string
	// poll is the status-poll interval, small against the job time.  The
	// client polls at once after submitting, then every interval; while
	// the job computes on the one core a due poll waits its turn, so the
	// interval bounds how long a finished job waits to be noticed.
	poll time.Duration
	// remote turns the local execution slot off and serves jobs with one
	// in-process worker instead.
	remote bool
	// resubmit gives every job the set-up job's seed, so the whole
	// stream is one spec.
	resubmit bool
	// durable persists runs and the result cache to a segment run store.
	durable bool
	// do submits the job for seed, waits for it to finish, fetches its
	// canonical output and checks it.  ref is the set-up job's outcome,
	// nil for the set-up job itself.
	do func(ctx context.Context, cl *client.Client, w *workload, seed int64, ref *jobOut) (jobOut, error)
	// remove deletes a finished job's v1 resource.
	remove func(ctx context.Context, cl *client.Client, id string) error
}

var workloads = []*workload{
	{
		name: "explore",
		poll: 4 * time.Millisecond,
		do:   doExplore,
		remove: func(ctx context.Context, cl *client.Client, id string) error {
			_, err := cl.CancelOptimize(ctx, id)
			return err
		},
	},
	{
		name:    "sweep",
		poll:    20 * time.Millisecond,
		durable: true,
		do:      doSweep,
		remove:  removeRun,
	},
	{
		name:   "campaign",
		poll:   2 * time.Millisecond,
		remote: true,
		do:     doCampaign,
		remove: func(ctx context.Context, cl *client.Client, id string) error {
			_, err := cl.CancelLitmus(ctx, id)
			return err
		},
	},
	{
		name:     "resubmit",
		poll:     50 * time.Microsecond,
		resubmit: true,
		do:       doResubmit,
		remove:   removeRun,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func removeRun(ctx context.Context, cl *client.Client, id string) error {
	_, err := cl.CancelRun(ctx, id)
	return err
}

// jobSeed derives job i's seed from the run seed (i = 0 is the set-up
// job).  Seeds are positive and fit every spec's seed field.
func jobSeed(seed int64, name string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, seed, i)
	x := h.Sum64()
	// splitmix64 finaliser
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x%1_000_000_000) + 1
}

// Explore: the default JVM gate on ARMv8 (6 candidates × 2 shapes,
// max_delay 32) with a small scoring measurement.

const (
	exploreBest    = "jdk9-acqrel"
	exploreUnsound = "hybrid-ldar+dmb-nosl"
)

func exploreSpec(seed int64) client.OptimizeSpec {
	return client.OptimizeSpec{
		Platform: "jvm",
		Arch:     "armv8",
		Samples:  2,
		FitCosts: []int64{8, 128},
		Workload: client.OptimizeWorkload{MaxCycles: 10_000},
		Seed:     seed,
	}
}

func doExplore(ctx context.Context, cl *client.Client, w *workload, seed int64, ref *jobOut) (jobOut, error) {
	sub, err := cl.SubmitOptimize(ctx, exploreSpec(seed))
	if err != nil {
		return jobOut{}, err
	}
	st, err := cl.WaitOptimize(ctx, sub.ID, w.poll)
	if err != nil {
		return jobOut{id: sub.ID}, err
	}
	if st.State != client.StateDone {
		return jobOut{id: sub.ID}, fmt.Errorf("optimize %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	raw, err := cl.CanonicalOptimize(ctx, sub.ID)
	if err != nil {
		return jobOut{id: sub.ID}, err
	}
	out, err := checkExplore(raw, ref)
	out.id = sub.ID
	return out, err
}

// checkExplore checks an optimizer report: the paper's ARMv8 verdict
// (jdk9-acqrel best, only the weakened hybrid unsound, with a witness)
// and the same explorer work as the set-up job.
func checkExplore(raw []byte, ref *jobOut) (jobOut, error) {
	out := jobOut{canonical: raw}
	var rep optimize.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return out, fmt.Errorf("explore: undecodable report: %w", err)
	}
	out.report = &rep
	if rep.Best != exploreBest {
		return out, fmt.Errorf("explore: best %q, want %q", rep.Best, exploreBest)
	}
	var unsound []string
	for _, c := range rep.Candidates {
		witness := false
		for _, g := range c.Gate {
			out.counts.Runs += g.Runs
			out.counts.States += g.States
			witness = witness || (!g.Sound && g.Witness != "")
		}
		if !c.Sound {
			unsound = append(unsound, c.Name)
			if !witness {
				return out, fmt.Errorf("explore: unsound %s has no witness", c.Name)
			}
		}
	}
	if !slices.Equal(unsound, []string{exploreUnsound}) {
		return out, fmt.Errorf("explore: unsound set %v, want [%s]", unsound, exploreUnsound)
	}
	return out, sameCounts(out, ref)
}

// Sweep: Figure 1, short, two samples per point.

func doSweep(ctx context.Context, cl *client.Client, w *workload, seed int64, ref *jobOut) (jobOut, error) {
	sub, err := cl.SubmitRun(ctx, client.RunSpec{Experiments: []string{"fig1"}, Short: true, Samples: 2, Seed: seed})
	if err != nil {
		return jobOut{}, err
	}
	raw, _, err := finishRun(ctx, cl, w, sub.ID)
	if err != nil {
		return jobOut{id: sub.ID}, err
	}
	out, err := checkSweep(raw, ref)
	out.id = sub.ID
	return out, err
}

// checkSweep checks a Figure 1 run: one ok result of 10 samples with
// one finite fitted k.
func checkSweep(raw []byte, ref *jobOut) (jobOut, error) {
	out := jobOut{canonical: raw}
	var res []client.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return out, fmt.Errorf("sweep: undecodable results: %w", err)
	}
	if len(res) != 1 || res[0].Status != "ok" {
		return out, fmt.Errorf("sweep: want one ok result, have %d", len(res))
	}
	r := res[0]
	out.counts.Samples = r.Samples
	if r.Samples != 10 {
		return out, fmt.Errorf("sweep: %d samples, want 10", r.Samples)
	}
	if len(r.Fits) != 1 {
		return out, fmt.Errorf("sweep: %d fits, want 1", len(r.Fits))
	}
	var fit struct {
		K *float64 `json:"k"`
	}
	if err := json.Unmarshal(r.Fits[0], &fit); err != nil || fit.K == nil || math.IsNaN(*fit.K) || math.IsInf(*fit.K, 0) {
		return out, fmt.Errorf("sweep: fitted k missing or not finite")
	}
	return out, sameCounts(out, ref)
}

// Campaign: 200 generated ARMv8 litmus tests × 8 trials in shards of
// 10, four shards in flight, executed by the in-process worker.  Every
// job runs the same generated batch and draws new trial seeds: batches
// from different generator seeds differ in cost by almost a factor of
// two, which would make the job stream mix cheap and expensive jobs.

const campaignGenSeed = 1

func doCampaign(ctx context.Context, cl *client.Client, w *workload, seed int64, ref *jobOut) (jobOut, error) {
	sub, err := cl.SubmitLitmus(ctx, client.LitmusSpec{
		Arch:      "armv8",
		GenSeed:   campaignGenSeed,
		Count:     200,
		Trials:    8,
		Seed:      seed,
		ShardSize: 10,
		Parallel:  4,
	})
	if err != nil {
		return jobOut{}, err
	}
	st, err := cl.WaitLitmus(ctx, sub.ID, w.poll)
	if err != nil {
		return jobOut{id: sub.ID}, err
	}
	if st.State != client.StateDone {
		return jobOut{id: sub.ID}, fmt.Errorf("litmus %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	raw, err := cl.CanonicalLitmus(ctx, sub.ID)
	if err != nil {
		return jobOut{id: sub.ID}, err
	}
	out, err := checkCampaign(raw, ref)
	out.id = sub.ID
	return out, err
}

// checkCampaign checks a campaign: 20 ok shards holding 200 rows of 8
// trials.
func checkCampaign(raw []byte, ref *jobOut) (jobOut, error) {
	out := jobOut{canonical: raw}
	var shards []client.Result
	if err := json.Unmarshal(raw, &shards); err != nil {
		return out, fmt.Errorf("campaign: undecodable results: %w", err)
	}
	if len(shards) != 20 {
		return out, fmt.Errorf("campaign: %d shards, want 20", len(shards))
	}
	rows := 0
	for _, sh := range shards {
		if sh.Status != "ok" {
			return out, fmt.Errorf("campaign: shard %s is %s: %s", sh.Experiment, sh.Status, sh.Err)
		}
		var tests []struct {
			Name   string `json:"name"`
			Trials int    `json:"trials"`
		}
		if err := json.Unmarshal([]byte(sh.Output), &tests); err != nil {
			return out, fmt.Errorf("campaign: shard %s: undecodable rows: %w", sh.Experiment, err)
		}
		for _, t := range tests {
			if t.Trials != 8 {
				return out, fmt.Errorf("campaign: %s ran %d trials, want 8", t.Name, t.Trials)
			}
			out.counts.Trials += t.Trials
		}
		rows += len(tests)
	}
	if rows != 200 {
		return out, fmt.Errorf("campaign: %d rows, want 200", rows)
	}
	return out, sameCounts(out, ref)
}

// Resubmit: the same four-experiment run, executed once by the set-up
// job and then served from the result cache.

var resubmitExperiments = []string{"fig4", "txt3", "counters", "litmus"}

func doResubmit(ctx context.Context, cl *client.Client, w *workload, seed int64, ref *jobOut) (jobOut, error) {
	sub, err := cl.SubmitRun(ctx, client.RunSpec{Experiments: resubmitExperiments, Short: true, Samples: 2, Seed: seed})
	if err != nil {
		return jobOut{}, err
	}
	raw, st, err := finishRun(ctx, cl, w, sub.ID)
	if err != nil {
		return jobOut{id: sub.ID}, err
	}
	out, err := checkResubmit(raw, st.Results, ref)
	out.id = sub.ID
	return out, err
}

// checkResubmit checks a resubmission against the set-up run: the same
// canonical bytes, every result served from the in-memory cache.
func checkResubmit(raw []byte, results []client.Result, ref *jobOut) (jobOut, error) {
	out := jobOut{canonical: raw}
	var res []client.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return out, fmt.Errorf("resubmit: undecodable results: %w", err)
	}
	if len(res) != len(resubmitExperiments) {
		return out, fmt.Errorf("resubmit: %d results, want %d", len(res), len(resubmitExperiments))
	}
	for _, r := range res {
		if r.Status != "ok" {
			return out, fmt.Errorf("resubmit: %s is %s: %s", r.Experiment, r.Status, r.Err)
		}
		out.counts.Samples += r.Samples
	}
	if ref == nil {
		return out, nil
	}
	if string(raw) != string(ref.canonical) {
		return out, errors.New("resubmit: canonical output differs from the set-up run's")
	}
	if len(results) != len(resubmitExperiments) {
		return out, fmt.Errorf("resubmit: status carries %d results, want %d", len(results), len(resubmitExperiments))
	}
	for _, r := range results {
		if r.Cache != "memory" {
			return out, fmt.Errorf("resubmit: %s served with cache %q, want \"memory\"", r.Experiment, r.Cache)
		}
	}
	return out, sameCounts(out, ref)
}

// finishRun waits for a run and fetches its canonical output.
func finishRun(ctx context.Context, cl *client.Client, w *workload, id string) ([]byte, client.RunStatus, error) {
	st, err := cl.WaitRun(ctx, id, w.poll)
	if err != nil {
		return nil, st, err
	}
	if st.State != client.StateDone {
		return nil, st, fmt.Errorf("run %s ended %s: %s", id, st.State, st.Error)
	}
	raw, err := cl.CanonicalRun(ctx, id)
	return raw, st, err
}

// sameCounts fails a job whose work differs from the set-up job's.
func sameCounts(out jobOut, ref *jobOut) error {
	if ref == nil || out.counts == ref.counts {
		return nil
	}
	return fmt.Errorf("work %+v differs from the set-up job's %+v", out.counts, ref.counts)
}
