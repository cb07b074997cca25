package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/wmm/client"
)

func TestCheckResubmit(t *testing.T) {
	results := func(cache string) []client.Result {
		var out []client.Result
		for _, e := range resubmitExperiments {
			out = append(out, client.Result{Experiment: e, Status: "ok", Samples: 2, Cache: cache})
		}
		return out
	}
	raw, err := json.Marshal(results(""))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := checkResubmit(raw, nil, nil)
	if err != nil {
		t.Fatalf("set-up output rejected: %v", err)
	}
	if _, err := checkResubmit(raw, results("memory"), &ref); err != nil {
		t.Fatalf("identical resubmission rejected: %v", err)
	}
	corrupt := bytes.Replace(raw, []byte(`"samples":2`), []byte(`"samples":3`), 1)
	if _, err := checkResubmit(corrupt, results("memory"), &ref); err == nil {
		t.Errorf("corrupted canonical output accepted")
	}
	if _, err := checkResubmit(raw, results("store"), &ref); err == nil {
		t.Errorf("a result not served from memory was accepted")
	}
}

func TestCheckSweep(t *testing.T) {
	good := `[{"experiment":"fig1","status":"ok","samples":10,"fits":[{"profile":"armv8","bench":"tomcat","k":0.003,"stderr":0.0001}]}]`
	if _, err := checkSweep([]byte(good), nil); err != nil {
		t.Fatalf("good sweep rejected: %v", err)
	}
	bad := map[string]string{
		"undecodable": good[:len(good)-3],
		"samples":     strings.Replace(good, `"samples":10`, `"samples":9`, 1),
		"no fit":      strings.Replace(good, `"fits":[{"profile":"armv8","bench":"tomcat","k":0.003,"stderr":0.0001}]`, `"fits":[]`, 1),
		"no k":        strings.Replace(good, `"k":0.003,`, ``, 1),
		"failed":      strings.Replace(good, `"status":"ok"`, `"status":"failed"`, 1),
	}
	for name, raw := range bad {
		if _, err := checkSweep([]byte(raw), nil); err == nil {
			t.Errorf("%s: corrupted sweep output accepted", name)
		}
	}
}

func TestCheckCampaign(t *testing.T) {
	var shards []client.Result
	for s := 0; s < 20; s++ {
		var rows []map[string]any
		for i := 0; i < 10; i++ {
			rows = append(rows, map[string]any{"name": "t" + strconv.Itoa(10*s+i), "trials": 8, "hits": 0, "relaxed": 0})
		}
		out, _ := json.Marshal(rows)
		shards = append(shards, client.Result{Experiment: "shard", Status: "ok", Output: string(out)})
	}
	raw, _ := json.Marshal(shards)
	ref, err := checkCampaign(raw, nil)
	if err != nil {
		t.Fatalf("good campaign rejected: %v", err)
	}
	if ref.counts.Trials != 1600 {
		t.Errorf("trials = %d, want 1600", ref.counts.Trials)
	}
	corrupt := bytes.Replace(raw, []byte(`\"trials\":8`), []byte(`\"trials\":7`), 1)
	if _, err := checkCampaign(corrupt, &ref); err == nil {
		t.Errorf("corrupted campaign output accepted")
	}
	shards[3].Status = "failed"
	raw, _ = json.Marshal(shards)
	if _, err := checkCampaign(raw, &ref); err == nil {
		t.Errorf("a failed shard was accepted")
	}
}

// corruptRuns rewrites the first explorer run count in every canonical
// response, leaving the JSON valid: the corruption only shows against
// the set-up job's counts.
type corruptRuns struct{ base http.RoundTripper }

var runsField = regexp.MustCompile(`"runs": (\d+)`)

func (c corruptRuns) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.RawQuery, "canonical=1") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	done := false
	body = runsField.ReplaceAllFunc(body, func(m []byte) []byte {
		if done {
			return m
		}
		done = true
		n, _ := strconv.Atoi(string(runsField.FindSubmatch(m)[1]))
		return []byte(`"runs": ` + strconv.Itoa(n+1))
	})
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// TestCorruptedCanonicalCountsAsFailed runs real explore jobs on a real
// stack whose client sees a corrupted canonical output: every job must
// count as failed, and the result must read correct=false.
func TestCorruptedCanonicalCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs optimizer jobs")
	}
	w := workloadByName("explore")
	st, err := newStack(t.TempDir(), w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ref, err := w.do(ctx, st.client, w, 7, nil)
	if err != nil {
		t.Fatalf("set-up job: %v", err)
	}
	st.client = client.New(st.base, client.WithHTTPClient(&http.Client{Transport: corruptRuns{http.DefaultTransport}}))
	c := config{w: w, seed: 7, jobs: 2, setups: 1, start: time.Now()}
	p, err := runPhase(ctx, st, c, 0, &ref, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != 2 || p.failed != 2 || len(p.lat) != 0 {
		t.Fatalf("attempted %d failed %d checked %d; want 2, 2, 0 (errors: %v)", p.attempted, p.failed, len(p.lat), p.errs)
	}
	if !strings.Contains(strings.Join(p.errs, "\n"), "differs from the set-up job's") {
		t.Errorf("failure is not the count check: %v", p.errs)
	}
	var buf strings.Builder
	res := &result{setup: []time.Duration{time.Second}, digests: []string{"x"}, phases: []*phase{p},
		metrics: map[string]float64{}}
	for _, d := range endToEnd {
		res.metrics[d.name] = 1
	}
	if err := report(&buf, c, res); err != nil {
		t.Fatal(err)
	}
	if err := checkPrinted(buf.String(), endToEnd); err == nil || !strings.Contains(err.Error(), "correct=false attempted=2 failed=2") {
		t.Errorf("report of failed jobs: %v", err)
	}
}
