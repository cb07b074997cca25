package platform_test

import (
	"encoding/json"
	"testing"

	"repro/internal/platform/c11"
	"repro/internal/platform/jvm"
	"repro/internal/platform/kernel"
)

// TestStrategySpaceDistinctSpecs checks that every enumerated strategy
// of a space has its own report encoding: two strategies whose Spec()
// marshals to the same JSON could not be told apart in a report.
func TestStrategySpaceDistinctSpecs(t *testing.T) {
	check := func(platform string, specs []any) {
		seen := map[string]bool{}
		for _, sp := range specs {
			data, err := json.Marshal(sp)
			if err != nil {
				t.Fatalf("%s: marshal %+v: %v", platform, sp, err)
			}
			if seen[string(data)] {
				t.Errorf("%s: two strategies encode as %s", platform, data)
			}
			seen[string(data)] = true
		}
	}
	var js, ks, cs []any
	for _, st := range jvm.Enumerate() {
		js = append(js, st.Spec())
	}
	for _, st := range kernel.Enumerate() {
		ks = append(ks, st.Spec())
	}
	for _, st := range c11.Enumerate() {
		cs = append(cs, st.Spec())
	}
	check("jvm", js)
	check("kernel", ks)
	check("c11", cs)
}

// TestStrategySpaceNamedCorners pins that the two named JDK strategies
// appear verbatim in the enumerated JVM space.
func TestStrategySpaceNamedCorners(t *testing.T) {
	want := map[string]jvm.Strategy{
		"jdk8-barriers": jvm.JDK8(),
		"jdk9-acqrel":   jvm.JDK9(),
	}
	found := map[string]bool{}
	for _, st := range jvm.Enumerate() {
		if w, ok := want[st.Name]; ok {
			if st != w {
				t.Errorf("enumerated %s = %+v, want verbatim %+v", st.Name, st, w)
			}
			found[st.Name] = true
		}
	}
	for name := range want {
		if !found[name] {
			t.Errorf("named strategy %s missing from enumerated space", name)
		}
	}
}

// TestStrategySpaceDistinctNames guards the determinism argument: strategy
// names feed the measurement-noise decorrelation hash, so every candidate
// in a space must carry a distinct canonical name.
func TestStrategySpaceDistinctNames(t *testing.T) {
	check := func(platform string, names []string) {
		seen := map[string]bool{}
		for _, n := range names {
			if n == "" {
				t.Errorf("%s: empty strategy name", platform)
			}
			if seen[n] {
				t.Errorf("%s: duplicate strategy name %q", platform, n)
			}
			seen[n] = true
		}
	}
	var jn, kn, cn []string
	for _, st := range jvm.Enumerate() {
		jn = append(jn, st.Name)
	}
	for _, st := range kernel.Enumerate() {
		kn = append(kn, st.Name)
	}
	for _, st := range c11.Enumerate() {
		cn = append(cn, st.Name)
	}
	check("jvm", jn)
	check("kernel", kn)
	check("c11", cn)
}
