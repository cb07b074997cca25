// Command wmmperf runs the simulator and explorer performance benchmarks
// and gates against a checked-in baseline, guarding the hot-path
// optimisations (machine reuse, zero-alloc cycle loop, explorer dedup)
// against regression.
//
// Usage:
//
//	wmmperf -short -out BENCH_new.json             # measure
//	wmmperf -short -baseline BENCH_8.json          # measure and gate (CI)
//	wmmperf -shortall                              # also time `wmmbench -short all`
//	wmmperf -sweep                                 # also measure repeated-sweep caching
//
// The gate fails (exit 1) when any benchmark is more than -tolerance
// slower than the baseline in ns/op, or allocates more per op at all
// (allocation counts are deterministic; the explorer rows, whose counts
// the Go runtime varies by a few, may grow by 0.1%).  With -sweep, the same
// multi-experiment run is submitted twice to an in-process server with
// the result cache enabled; the run fails unless the second pass is
// served from the cache byte-identically, and the report records the
// pass times and speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/perfbench"
	"repro/wmm"
)

func main() {
	var (
		short     = flag.Bool("short", false, "reduced cycle counts for CI")
		out       = flag.String("out", "", "write the measurement report (JSON) to this file")
		baseline  = flag.String("baseline", "", "compare against this baseline report and fail on regression")
		tolerance = flag.Float64("tolerance", 0.20, "relative ns/op slowdown tolerated against the baseline")
		shortAll  = flag.Bool("shortall", false, "also measure wall time of the full `wmmbench -short all` run")
		sweep     = flag.Bool("sweep", false, "also measure the repeated-sweep result-cache scenario")
	)
	flag.Parse()

	host := perfbench.CurrentHost()
	rep := perfbench.Report{
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		Host:   &host,
		Short:  *short,
	}
	rep.Results = perfbench.Run(*short, func(format string, args ...any) {
		fmt.Printf(format, args...)
	})

	if *shortAll {
		fmt.Println("running all experiments (-short) for wall-time measurement...")
		start := time.Now()
		if err := wmm.RunAllExperiments(wmm.ExperimentOptions{Short: true, Out: os.Stderr}); err != nil {
			fmt.Fprintf(os.Stderr, "wmmperf: short-all run failed: %v\n", err)
			os.Exit(1)
		}
		rep.ShortAllSeconds = time.Since(start).Seconds()
		fmt.Printf("short-all wall time: %.1fs\n", rep.ShortAllSeconds)
	}

	if *sweep {
		fmt.Println("running the repeated-sweep cache scenario...")
		sw, err := perfbench.RepeatedSweep(*short)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmmperf: repeated sweep: %v\n", err)
			os.Exit(1)
		}
		rep.RepeatedSweep = &sw
		fmt.Printf("repeated sweep %v: first pass %.2fs, cached pass %.3fs (%.0fx, %d hits)\n",
			sw.Experiments, sw.FirstPassSeconds, sw.SecondPassSeconds, sw.Speedup, sw.CacheHits)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmmperf: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "wmmperf: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *out)
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmmperf: reading baseline: %v\n", err)
			os.Exit(1)
		}
		var base perfbench.Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "wmmperf: parsing baseline: %v\n", err)
			os.Exit(1)
		}
		if bad := perfbench.Compare(base.Results, rep.Results, *tolerance); len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "wmmperf: performance regression against", *baseline)
			for _, msg := range bad {
				fmt.Fprintln(os.Stderr, "  "+msg)
			}
			os.Exit(1)
		}
		fmt.Printf("no regression against %s (tolerance %.0f%%)\n", *baseline, *tolerance*100)
	}
}
