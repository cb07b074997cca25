package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of nothing should be NaN")
	}
}

func TestRatioAndMean(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Errorf("ratio: got %v and %v", ratio(3, 0), ratio(3, 2))
	}
	if mean(nil) != 0 || mean([]float64{1, 2, 6}) != 3 {
		t.Errorf("mean: got %v and %v", mean(nil), mean([]float64{1, 2, 6}))
	}
	if ms(1500*time.Microsecond) != 1.5 {
		t.Errorf("ms(1.5ms) = %v", ms(1500*time.Microsecond))
	}
}

func TestExpositionSums(t *testing.T) {
	text := []byte(`# HELP wmm_http_requests_total HTTP requests.
# TYPE wmm_http_requests_total counter
wmm_http_requests_total{method="GET",path="/api/v1/runs/{id}",code="200"} 7
wmm_http_requests_total{method="POST",path="/api/v1/runs",code="202"} 2
wmm_http_requests_total{method="GET",path="/api/v1/runs/{id}",code="404"} 1
wmm_engine_sample_run_seconds_sum 1.5
wmm_engine_sample_run_seconds_count 3
wmm_engine_jobs_executed_total 3
`)
	s := parseExposition(text)
	if got := s.sum("wmm_http_requests_total"); got != 10 {
		t.Errorf("all requests = %v, want 10", got)
	}
	if got := s.sum("wmm_http_requests_total", `method="GET"`, `path="/api/v1/runs/{id}"`); got != 8 {
		t.Errorf("GET status requests = %v, want 8", got)
	}
	if got := s.sum("wmm_engine_sample_run_seconds_sum"); got != 1.5 {
		t.Errorf("histogram sum = %v, want 1.5", got)
	}
	if got := s.sum("wmm_engine_sample_run_seconds"); got != 0 {
		t.Errorf("a family name alone matched %v; want only exact series names", got)
	}
	after := parseExposition([]byte("wmm_engine_jobs_executed_total 13\n"))
	if got := delta(s, after, "wmm_engine_jobs_executed_total"); got != 10 {
		t.Errorf("delta = %v, want 10", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "http", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "http", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "store", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestAttachStoreSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http", Job: 3, Start: 0, End: 100},
		{ID: 2, Name: "http", Job: 3, Start: 10, End: 50},
		{ID: 3, Name: "store", Job: 3, Start: 20, End: 30}, // inside both: innermost wins
		{ID: 4, Name: "store", Job: 3, Start: 120, End: 130},
		{ID: 5, Name: "store", Job: 4, Start: 20, End: 30}, // another job's call
	}
	attachStoreSpans(spans)
	if spans[2].Parent != 2 || spans[3].Parent != 0 || spans[4].Parent != 0 {
		t.Errorf("parents = %d, %d, %d; want 2, 0, 0", spans[2].Parent, spans[3].Parent, spans[4].Parent)
	}
}

func TestLeaseOp(t *testing.T) {
	cases := []struct{ path, op, id string }{
		{"/api/v1/leases", "lease", ""},
		{"/api/v1/leases/lease-7/heartbeat", "heartbeat", "lease-7"},
		{"/api/v1/leases/lease-7/results", "upload", "lease-7"},
		{"/api/v1/runs", "other", ""},
	}
	for _, c := range cases {
		if op, id := leaseOp(c.path); op != c.op || id != c.id {
			t.Errorf("leaseOp(%q) = %q, %q; want %q, %q", c.path, op, id, c.op, c.id)
		}
	}
}

func TestJobSeed(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := jobSeed(42, "sweep", i)
		if s < 1 || s > 1_000_000_000 {
			t.Fatalf("seed %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("job %d repeats a seed", i)
		}
		seen[s] = true
	}
	if jobSeed(42, "sweep", 3) != jobSeed(42, "sweep", 3) || jobSeed(42, "sweep", 3) == jobSeed(43, "sweep", 3) {
		t.Errorf("job seeds must be a function of (seed, workload, index)")
	}
}
