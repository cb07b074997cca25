// Command wmmlitmus runs weak-memory litmus tests on the simulated
// machines, in the style of the litmus7 tool: pick shapes, a machine, a
// trial count, and optionally memory-system stress, and get observed
// outcome counts with conformance verdicts.
//
// Usage:
//
//	wmmlitmus [-arch armv8|power7|both] [-trials N] [-stress] [-seed N] [-json] [shape ...]
//	wmmlitmus -exhaustive [-arch ...] [-json] [shape ...]
//	wmmlitmus -gen N [-gen-seed S] [-max-threads T] [-arch ...] [-json]
//	wmmlitmus -list
//
// With no shapes, the whole catalogue for the selected machine(s) runs.
// -exhaustive replaces sampling with enumeration of the reachable
// outcome set: forbidden shapes become proofs of absence, allowed ones
// constructive witnesses.  -gen N swaps the catalogue for N diy-style
// generated tests (no expectations, so verdicts are observational).
// The process exits non-zero when any conformance check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/wmm"
)

// row is one test's result in -json output.
type row struct {
	Arch   string `json:"arch"`
	Name   string `json:"name"`
	Mode   string `json:"mode"`             // "sampled" | "exhaustive"
	Expect string `json:"expect,omitempty"` // catalogue tests only

	// Sampled mode.
	Trials  int `json:"trials,omitempty"`
	Hits    int `json:"hits,omitempty"`
	Relaxed int `json:"relaxed,omitempty"`

	// Exhaustive mode.
	Outcomes       int  `json:"outcomes,omitempty"` // distinct reachable final states
	RelaxedReached bool `json:"relaxed_reached,omitempty"`
	Runs           int  `json:"runs,omitempty"`
	Complete       bool `json:"complete,omitempty"`

	Verdict string `json:"verdict"` // "ok" | "violation" | "observed"
	Error   string `json:"error,omitempty"`
}

func main() {
	archFlag := flag.String("arch", "both", "machine: armv8, power7 or both")
	trials := flag.Int("trials", 400, "randomized trials per shape")
	stress := flag.Bool("stress", false, "elevated propagation-tail probability (provokes rare outcomes)")
	seed := flag.Int64("seed", 1, "base random seed")
	exhaustive := flag.Bool("exhaustive", false, "enumerate reachable outcomes instead of sampling")
	genN := flag.Int("gen", 0, "run N generated diy-style tests instead of the catalogue")
	genSeed := flag.Int64("gen-seed", 1, "generator seed for -gen")
	maxThreads := flag.Int("max-threads", 4, "generated cycle-length cap (2..4) for -gen")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array on stdout")
	list := flag.Bool("list", false, "list the catalogue and exit")
	flag.Parse()

	profiles := []*wmm.Profile{wmm.ARMv8(), wmm.POWER7()}
	if *archFlag != "both" {
		prof, err := wmm.ProfileByName(*archFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmmlitmus: unknown arch %q\n", *archFlag)
			os.Exit(2)
		}
		profiles = []*wmm.Profile{prof}
	}

	if *list {
		for _, prof := range profiles {
			fmt.Printf("== %s\n", prof.Name)
			for _, t := range wmm.LitmusSuite(prof.Name) {
				fmt.Printf("  %-22s %s\n", t.Name, t.Expect[prof.Name])
			}
		}
		return
	}

	// The test set: the conformance catalogue, or a generated batch
	// (shared across profiles — generation is profile-independent).
	var generated []*wmm.LitmusTest
	if *genN > 0 {
		recipes, err := wmm.GenerateLitmus(wmm.LitmusGenConfig{
			Seed: *genSeed, Count: *genN, MaxThreads: *maxThreads,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmmlitmus: %v\n", err)
			os.Exit(2)
		}
		generated = wmm.BuildLitmus(recipes)
	}

	want := map[string]bool{}
	for _, name := range flag.Args() {
		want[strings.ToLower(name)] = true
	}

	var rows []row
	violations := 0
	for _, prof := range profiles {
		if !*jsonOut {
			mode := fmt.Sprintf("%d+ trials/shape", *trials)
			if *exhaustive {
				mode = "exhaustive"
			}
			fmt.Printf("== %s (%s stores, %s)\n", prof.Name, prof.Flavor, mode)
		}
		r := &wmm.LitmusRunner{Prof: prof, Trials: *trials, Seed: *seed}
		tests := generated
		if tests == nil {
			tests = wmm.LitmusSuite(prof.Name)
		}
		for _, t := range tests {
			if len(want) > 0 && !want[strings.ToLower(t.Name)] {
				continue
			}
			if *stress {
				t.StressProp = true
			}
			rw := runOne(r, prof.Name, t, *exhaustive)
			if rw.Verdict == "violation" {
				violations++
			}
			rows = append(rows, rw)
			if !*jsonOut {
				printRow(rw)
			}
		}
	}

	if *jsonOut {
		out, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmmlitmus: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "wmmlitmus: %d conformance violations\n", violations)
		os.Exit(1)
	}
}

// runOne executes one test in the selected mode.  Catalogue tests
// (with an expectation for the profile) get a conformance verdict;
// generated tests are observational.
func runOne(r *wmm.LitmusRunner, prof string, t *wmm.LitmusTest, exhaustive bool) row {
	exp, hasExpect := t.Expect[prof]
	rw := row{Arch: prof, Name: t.Name, Mode: "sampled"}
	if hasExpect {
		rw.Expect = exp.String()
	}

	if exhaustive {
		rw.Mode = "exhaustive"
		var rep *wmm.LitmusExhaustiveReport
		var err error
		if hasExpect {
			rep, err = r.CheckExhaustive(t)
		} else {
			rep, err = r.Exhaustive(t, false)
		}
		if rep != nil {
			rw.Outcomes = len(rep.Outcomes)
			rw.RelaxedReached = rep.Violation() != nil
			rw.Runs = rep.Runs
			rw.Complete = rep.Complete
		}
		switch {
		case err != nil:
			rw.Verdict, rw.Error = "violation", err.Error()
		case hasExpect:
			rw.Verdict = "ok"
		default:
			rw.Verdict = "observed"
		}
		return rw
	}

	if hasExpect {
		out, err := r.Check(t)
		rw.Trials, rw.Hits, rw.Relaxed = out.Trials, out.Hits, out.Relaxed
		if err != nil {
			rw.Verdict, rw.Error = "violation", err.Error()
		} else {
			rw.Verdict = "ok"
		}
		return rw
	}
	out, err := r.Run(t)
	rw.Trials, rw.Hits, rw.Relaxed = out.Trials, out.Hits, out.Relaxed
	if err != nil {
		// A machine error, not a conformance result.
		rw.Verdict, rw.Error = "violation", err.Error()
	} else {
		rw.Verdict = "observed"
	}
	return rw
}

// printRow renders one result line in the human format.
func printRow(rw row) {
	expect := rw.Expect
	if expect == "" {
		expect = "-"
	}
	if rw.Mode == "exhaustive" {
		reached := "relaxed unreachable"
		if rw.RelaxedReached {
			reached = "relaxed REACHABLE"
		}
		complete := "complete"
		if !rw.Complete {
			complete = "truncated"
		}
		fmt.Printf("  %-22s %-15s %3d outcomes / %6d runs (%s)   %s   %s\n",
			rw.Name, expect, rw.Outcomes, rw.Runs, complete, reached, verdictLabel(rw))
	} else {
		fmt.Printf("  %-22s %-15s relaxed %5d / hits %5d / trials %5d   %s\n",
			rw.Name, expect, rw.Relaxed, rw.Hits, rw.Trials, verdictLabel(rw))
	}
	if rw.Error != "" {
		fmt.Printf("    %s\n", rw.Error)
	}
}

func verdictLabel(rw row) string {
	if rw.Verdict == "violation" {
		return "VIOLATION"
	}
	return rw.Verdict
}
