package engine

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/resultcache"
)

// TestV1ErrorEnvelopeAudit sweeps the failure surface of the v1 API:
// every 4xx/5xx — malformed bodies, unknown IDs, bad query parameters,
// unknown routes under /api/v1/, wrong methods, dead leases — must
// answer with Content-Type application/json and the uniform envelope
// {"error": {"code", "message"}}.  Wrong-method responses must also
// carry an Allow header listing the registered verbs.
func TestV1ErrorEnvelopeAudit(t *testing.T) {
	ts, _ := newDispatchServer(t, DispatchOptions{})

	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		status    int
		code      string
		allowPart string // required substring of the Allow header
	}{
		{name: "runs bad body", method: "POST", path: "/api/v1/runs", body: "{", status: 400, code: ErrCodeInvalidArgument},
		{name: "runs unknown experiment", method: "POST", path: "/api/v1/runs", body: `{"experiments": ["no-such-figure"]}`, status: 400, code: ErrCodeInvalidArgument},
		{name: "litmus bad body", method: "POST", path: "/api/v1/litmus", body: "{", status: 400, code: ErrCodeInvalidArgument},
		{name: "optimize bad body", method: "POST", path: "/api/v1/optimize", body: "{", status: 400, code: ErrCodeInvalidArgument},
		{name: "optimize bad platform", method: "POST", path: "/api/v1/optimize", body: `{"platform": "cobol"}`, status: 400, code: ErrCodeInvalidArgument},
		{name: "runs bad limit", method: "GET", path: "/api/v1/runs?limit=bogus", status: 400, code: ErrCodeInvalidArgument},
		{name: "litmus bad limit", method: "GET", path: "/api/v1/litmus?limit=-3", status: 400, code: ErrCodeInvalidArgument},
		{name: "optimize bad limit", method: "GET", path: "/api/v1/optimize?limit=0", status: 400, code: ErrCodeInvalidArgument},
		{name: "lease missing worker", method: "POST", path: "/api/v1/leases", body: "{}", status: 400, code: ErrCodeInvalidArgument},

		{name: "run not found", method: "GET", path: "/api/v1/runs/run-999", status: 404, code: ErrCodeNotFound},
		{name: "run delete not found", method: "DELETE", path: "/api/v1/runs/run-999", status: 404, code: ErrCodeNotFound},
		{name: "litmus not found", method: "GET", path: "/api/v1/litmus/litmus-999", status: 404, code: ErrCodeNotFound},
		{name: "litmus delete not found", method: "DELETE", path: "/api/v1/litmus/litmus-999", status: 404, code: ErrCodeNotFound},
		{name: "optimize not found", method: "GET", path: "/api/v1/optimize/optimize-999", status: 404, code: ErrCodeNotFound},
		{name: "optimize delete not found", method: "DELETE", path: "/api/v1/optimize/optimize-999", status: 404, code: ErrCodeNotFound},

		{name: "unknown v1 route", method: "GET", path: "/api/v1/frobnicate", status: 404, code: ErrCodeNotFound},
		{name: "unknown v1 subpath", method: "GET", path: "/api/v1/runs/run-1/extra", status: 404, code: ErrCodeNotFound},

		{name: "runs wrong method", method: "PUT", path: "/api/v1/runs", body: "{}", status: 405, code: ErrCodeMethodNotAllowed, allowPart: "GET, POST"},
		{name: "optimize id wrong method", method: "PATCH", path: "/api/v1/optimize/optimize-1", body: "{}", status: 405, code: ErrCodeMethodNotAllowed, allowPart: "DELETE, GET"},
		{name: "leases wrong method", method: "GET", path: "/api/v1/leases", status: 405, code: ErrCodeMethodNotAllowed, allowPart: "POST"},
		{name: "heartbeat wrong method", method: "GET", path: "/api/v1/leases/lease-1/heartbeat", status: 405, code: ErrCodeMethodNotAllowed, allowPart: "POST"},

		{name: "dead lease heartbeat", method: "POST", path: "/api/v1/leases/lease-999/heartbeat", status: 410, code: ErrCodeLeaseGone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
			}
			if tc.allowPart != "" {
				if allow := resp.Header.Get("Allow"); !strings.Contains(allow, tc.allowPart) {
					t.Errorf("%s %s: Allow %q, want it to contain %q", tc.method, tc.path, allow, tc.allowPart)
				}
			}
			if code, _ := decodeEnvelope(t, resp); code != tc.code {
				t.Errorf("%s %s: error code %q, want %q", tc.method, tc.path, code, tc.code)
			}
		})
	}
}

// TestLegacySunsetHeaders pins the deprecation triple on a legacy
// route: Deprecation, the fixed Sunset date, and the successor Link.
func TestLegacySunsetHeaders(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy /experiments: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Error("legacy route missing Deprecation header")
	}
	if got := resp.Header.Get("Sunset"); got != LegacySunset {
		t.Errorf("Sunset header %q, want %q", got, LegacySunset)
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/api/v1/experiments") {
		t.Errorf("Link header %q does not name the v1 successor", link)
	}
}

// TestLegacyRoutesDisabled flips ServerOptions.DisableLegacy: legacy
// routes answer 410 gone in the error envelope, naming the successor,
// while the v1 surface keeps serving.
func TestLegacyRoutesDisabled(t *testing.T) {
	ts, _, _ := newTestServerOpts(t, ServerOptions{Parallel: 2, DisableLegacy: true})
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("sunset legacy /runs: status %d, want 410", resp.StatusCode)
	}
	code, msg := decodeEnvelope(t, resp)
	if code != ErrCodeGone {
		t.Errorf("error code %q, want %q", code, ErrCodeGone)
	}
	if !strings.Contains(msg, "/api/v1/runs") {
		t.Errorf("410 message %q does not name the v1 successor", msg)
	}
	var page struct {
		Items []RunStatus `json:"items"`
	}
	if resp := getJSON(t, ts.URL+"/api/v1/runs", &page); resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 /runs with legacy disabled: status %d", resp.StatusCode)
	}
}

// TestPatternMatches pins the segment matcher the 405 Allow computation
// rests on.
func TestPatternMatches(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"/api/v1/runs", "/api/v1/runs", true},
		{"/api/v1/runs", "/api/v1/litmus", false},
		{"/api/v1/runs/{id}", "/api/v1/runs/run-3", true},
		{"/api/v1/runs/{id}", "/api/v1/runs/", false},
		{"/api/v1/runs/{id}", "/api/v1/runs/run-3/extra", false},
		{"/api/v1/leases/{id}/heartbeat", "/api/v1/leases/lease-1/heartbeat", true},
		{"/api/v1/leases/{id}/heartbeat", "/api/v1/leases/lease-1/results", false},
	}
	for _, tc := range cases {
		if got := patternMatches(tc.pattern, tc.path); got != tc.want {
			t.Errorf("patternMatches(%q, %q) = %v, want %v", tc.pattern, tc.path, got, tc.want)
		}
	}
}

// TestAPIDocInSync fails when docs/api-v1.json drifts from the route
// table it is generated from.  Regenerate with:
//
//	go run ./cmd/wmmd -print-api-doc > docs/api-v1.json
func TestAPIDocInSync(t *testing.T) {
	want := APIDoc()
	path := filepath.Join("..", "..", "docs", "api-v1.json")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading committed API doc: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("docs/api-v1.json is stale: regenerate with `go run ./cmd/wmmd -print-api-doc > docs/api-v1.json`")
	}
}

// TestMetricsDocInSync fails when a metric family that a wmmd-equivalent
// stack (engine, server, dispatcher, result cache) registers is missing
// from docs/OBSERVABILITY.md.  The doc may name sibling families with a
// brace list, as in wmm_engine_calibration_cache_{hits,misses}_total.
func TestMetricsDocInSync(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("reading the metrics doc: %v", err)
	}
	doc := string(raw)
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`wmm_[a-z0-9_]+`).FindAllString(doc, -1) {
		documented[name] = true
	}
	for _, tok := range regexp.MustCompile(`wmm_[a-z0-9_]*\{[a-z0-9_,]+\}[a-z0-9_]+`).FindAllString(doc, -1) {
		open, end := strings.IndexByte(tok, '{'), strings.IndexByte(tok, '}')
		for _, alt := range strings.Split(tok[open+1:end], ",") {
			documented[tok[:open]+alt+tok[end+1:]] = true
		}
	}

	reg := metrics.NewRegistry()
	eng := New(Options{Workers: 1, Registry: reg})
	defer eng.Close()
	api := NewServer(eng, ServerOptions{Dispatch: &DispatchOptions{
		Cache: resultcache.New(resultcache.Options{Registry: reg}),
	}})
	defer api.Shutdown(context.Background())
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		families++
		if !documented[f[2]] {
			t.Errorf("metric family %s is registered but missing from docs/OBSERVABILITY.md", f[2])
		}
	}
	if families == 0 {
		t.Fatal("the stack registered no metric families")
	}
}
