package main

import (
	"os"
	"strings"
	"testing"
)

// TestCatalogueMatchesBenchmarkJSON keeps the metrics the benchmark
// prints and the ones BENCHMARK.json declares identical, in order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e, layers, err := benchmarkMetrics(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDefs(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, benchmark prints %v", e2e, endToEnd)
	}
	if !sameDefs(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, benchmark prints %v", layers, perLayer)
	}
	for _, w := range workloads {
		if !strings.Contains(string(data), `"name": "`+w.name+`"`) {
			t.Errorf("BENCHMARK.json does not list workload %s", w.name)
		}
	}
}

func TestCheckPrinted(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	good := "x\nmetric a_ms 1.5 ms\nmetric b 3 count\n" +
		`{"correct":true,"attempted":2,"failed":0,"metrics":{"a_ms":{"value":1.5,"unit":"ms"},"b":{"value":3,"unit":"count"}}}` + "\n"
	if err := checkPrinted(good, defs); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := map[string]string{
		"missing line": strings.Replace(good, "metric b 3 count\n", "", 1),
		"wrong unit":   strings.Replace(good, `"unit":"count"`, `"unit":"ms"`, 1),
		"extra metric": strings.Replace(good, `"metrics":{`, `"metrics":{"c":{"value":1,"unit":"s"},`, 1),
		"not last":     good + "trailing\n",
		"failed job":   strings.Replace(good, `"failed":0`, `"failed":1`, 1),
	}
	for name, text := range bad {
		if err := checkPrinted(text, defs); err == nil {
			t.Errorf("%s: bad report accepted", name)
		}
	}
}

// TestSmoke runs two jobs of every workload, untraced and traced, and
// checks every metric is printed by name with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var out strings.Builder
	if err := runSmoke(&out, nil, t.TempDir(), "../BENCHMARK.json"); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), " ok\n"); got != 2*len(workloads) {
		t.Errorf("smoke passed %d runs, want %d:\n%s", got, 2*len(workloads), out.String())
	}
}
