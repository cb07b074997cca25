package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/wmm/client"
)

// TestWirePairs pins the four v1 bodies declared on both sides of the
// wire: the three job statuses and OptimizeSpec, whose server form holds
// typed engine values where wmm/client keeps raw JSON.  Each pair must
// name the same JSON fields, a client OptimizeSpec with every field set
// must decode into the server's, and a finished run's, campaign's and
// optimizer job's status bodies must decode into the client's types,
// refusing unknown fields either way.
func TestWirePairs(t *testing.T) {
	sameFields(t, "RunStatus", reflect.TypeFor[RunStatus](), reflect.TypeFor[client.RunStatus]())
	sameFields(t, "LitmusStatus", reflect.TypeFor[LitmusStatus](), reflect.TypeFor[client.LitmusStatus]())
	sameFields(t, "OptimizeStatus", reflect.TypeFor[OptimizeStatus](), reflect.TypeFor[client.OptimizeStatus]())
	sameFields(t, "OptimizeSpec", reflect.TypeFor[OptimizeSpec](), reflect.TypeFor[client.OptimizeSpec]())

	spec := client.OptimizeSpec{
		Platform:   "jvm",
		Arch:       "armv8",
		Strategies: []string{"jdk8-barriers", "jdk9-acqrel"},
		Baseline:   "jdk8-barriers",
		Gate:       client.OptimizeGate{Shapes: []string{"volatile-mp"}, MaxDelay: 16},
		Workload: client.OptimizeWorkload{
			Mix:       map[string]int{"compute": 6, "volatile_loads": 4, "volatile_stores": 2},
			Cores:     2,
			MaxCycles: 60_000,
		},
		Samples:   3,
		FitCosts:  []int64{8, 32},
		Seed:      7,
		Parallel:  2,
		TimeoutMs: 120_000,
		NoCache:   true,
		Tenant:    "wire",
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := strictDecode(bytes.NewReader(raw), &OptimizeSpec{}); err != nil {
		t.Errorf("client.OptimizeSpec into the server's OptimizeSpec: %v", err)
	}

	ts, _ := newTestServer(t)
	run, err := testClient(ts).SubmitRun(context.Background(),
		client.RunSpec{Experiments: []string{"fig4"}, Short: true, Samples: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lit := submitLitmus(t, ts, litmusSpecJSON)
	opt := submitOptimize(t, ts, spec)
	if st := waitState(t, ts, run.ID, 2*time.Minute); st.State != client.StateDone {
		t.Fatalf("run ended %s (err %q)", st.State, st.Error)
	}
	if st := waitLitmus(t, ts, lit.ID); st.State != client.StateDone {
		t.Fatalf("campaign ended %s (err %q)", st.State, st.Error)
	}
	if st := waitOptimize(t, ts, opt.ID); st.State != client.StateDone || len(st.Report) == 0 {
		t.Fatalf("optimizer job ended %s with %d report bytes (err %q)", st.State, len(st.Report), st.Error)
	}
	for path, out := range map[string]any{
		"/api/v1/runs/" + run.ID:     &client.RunStatus{},
		"/api/v1/litmus/" + lit.ID:   &client.LitmusStatus{},
		"/api/v1/optimize/" + opt.ID: &client.OptimizeStatus{},
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := strictDecode(resp.Body, out); err != nil {
			t.Errorf("GET %s into %T: %v", path, out, err)
		}
		resp.Body.Close()
	}
}

// strictDecode decodes one JSON value, refusing fields out does not
// declare.
func strictDecode(r io.Reader, out any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

// sameFields reports each JSON field that one of a server and a client
// type declares and the other does not, descending into the fields both
// declare as structs (or pointers to or slices of them).
func sameFields(t *testing.T, path string, srv, cli reflect.Type) {
	t.Helper()
	sf, cf := jsonFields(srv), jsonFields(cli)
	for name, st := range sf {
		ct, ok := cf[name]
		switch {
		case !ok:
			t.Errorf("%s.%s is declared by the server only", path, name)
		case st.Kind() == reflect.Struct && ct.Kind() == reflect.Struct:
			sameFields(t, path+"."+name, st, ct)
		}
	}
	for name := range cf {
		if _, ok := sf[name]; !ok {
			t.Errorf("%s.%s is declared by the client only", path, name)
		}
	}
}

// jsonFields maps the JSON names of a struct's fields, embedded structs
// flattened, to their types with pointers and slices unwrapped.
func jsonFields(t reflect.Type) map[string]reflect.Type {
	out := map[string]reflect.Type{}
	for i := range t.NumField() {
		f := t.Field(i)
		switch {
		case f.Anonymous:
			maps.Copy(out, jsonFields(f.Type))
		case f.IsExported():
			ft := f.Type
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			out[name] = ft
		}
	}
	return out
}
