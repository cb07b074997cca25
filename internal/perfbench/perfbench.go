// Package perfbench holds the performance benchmarks of the simulator
// and explorer layers, shared by the `go test -bench BenchmarkSim`
// harness (bench_test.go) and the cmd/wmmperf regression tool.  One
// definition serves both so the numbers CI gates on are the numbers
// developers reproduce locally.
package perfbench

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/javabench"
)

// Bench is one named benchmark body.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
	// Cycles is the simulated cycle count per iteration for bodies that
	// drive the raw cycle loop; zero for sample-level bodies.
	Cycles int64
	// AllocsTolerance is the relative allocs/op growth Compare accepts:
	// zero (exact) except for the sample and explorer bodies, whose
	// allocations per op vary by a few between identical runs (the
	// runtime allocates at GC time, and Go map growth depends on the
	// per-process hash seed).
	AllocsTolerance float64
}

// steadyProg builds the per-core program used by the cycle-loop
// benchmarks: a non-halting mix of ALU work, loads, stores and fences that
// keeps every pipeline subsystem busy (no idle fast-path escape).
func steadyProg(prof *arch.Profile, core int) arch.Program {
	fence := arch.DMBIshSt
	if prof.Flavor == arch.NonMCA {
		fence = arch.LwSync
	}
	b := arch.NewBuilder()
	b.MovImm(0, 0)
	b.Label("loop")
	b.Work(1)
	b.Load(2, 1, int64(core*64))
	b.AddImm(2, 2, 3)
	b.Store(2, 1, int64(core*64))
	b.Fence(fence)
	b.Load(3, 1, int64(((core+1)%4)*64))
	b.Add(4, 2, 3)
	b.Mul(4, 4, 2)
	b.AddImm(0, 0, 1)
	b.B("loop")
	return b.MustBuild()
}

// simCycles measures raw simulation throughput: cycles simulated per
// wall-clock second on a 4-core machine, reusing one machine via Reset.
// Steady state allocates nothing per iteration.
func simCycles(prof *arch.Profile, cycles int64) func(b *testing.B) {
	return func(b *testing.B) {
		m, err := sim.New(prof, sim.Config{Cores: 4, MemWords: 1 << 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		progs := make([]arch.Program, 4)
		for c := range progs {
			progs[c] = steadyProg(prof, c)
		}
		// One warm run lets the reusable buffers (store buffers, propagation
		// heaps, result storage) reach their steady capacity, so the timed
		// region measures the true 0 allocs/op steady state.
		m.Reset(0)
		for c, p := range progs {
			if err := m.LoadProgram(c, p); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Run(cycles); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset(int64(i) + 1)
			for c, p := range progs {
				if err := m.LoadProgram(c, p); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := m.Run(cycles); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
	}
}

// simReset measures Machine.Reset after a run: the per-sample overhead
// of machine reuse, which grows with the memory the run wrote.  Each op
// writes every stride-th word of a 4-core, 4096-word machine and then
// resets it; the writes are timed too.  A stride of 1024 leaves 4 words
// written, as one litmus run does; a stride of 2 leaves half the memory
// written, as a workload sample does.  Allocates nothing.
func simReset(prof *arch.Profile, stride int64) func(b *testing.B) {
	return func(b *testing.B) {
		const memWords = 1 << 12
		m, err := sim.New(prof, sim.Config{Cores: 4, MemWords: memWords, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for a := int64(0); a < memWords; a += stride {
				m.WriteMem(a, a+1)
			}
			m.Reset(int64(i) + 1)
		}
	}
}

// sampleAllocsTolerance bounds SimSample's allocs/op growth at 5%: the
// about 200 allocations of one sample vary by up to 3 between identical
// runs with the number of GC cycles the sample spans.
const sampleAllocsTolerance = 0.05

// simSample measures one full benchmark sample through the workload layer
// with a MachineCache, i.e. ns/sample as the experiment drivers see it.
// One untimed sample first fills the cache, so its one-time allocations
// stay out of allocs/op whatever b.N the run settles on.
func simSample(prof *arch.Profile) func(b *testing.B) {
	return func(b *testing.B) {
		bench := javabench.Spark()
		env := workload.DefaultEnv(prof)
		mc := workload.NewMachineCache()
		if _, err := workload.RunWith(mc, bench, env, workload.SampleSeed(1, 0)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := workload.RunWith(mc, bench, env, workload.SampleSeed(1, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Benchmarks returns the full suite.  short trims the per-iteration cycle
// counts so a full sweep finishes in CI time; the explorer bodies explore
// fixed trees either way.
func Benchmarks(short bool) []Bench {
	cycles := int64(200_000)
	if short {
		cycles = 50_000
	}
	var out []Bench
	for _, prof := range []*arch.Profile{arch.ARMv8(), arch.POWER7()} {
		out = append(out,
			Bench{Name: "SimCycles/" + prof.Name, Fn: simCycles(prof, cycles), Cycles: cycles},
			Bench{Name: "SimReset/" + prof.Name, Fn: simReset(prof, 1024)},
			Bench{Name: "SimResetDense/" + prof.Name, Fn: simReset(prof, 2)},
			Bench{Name: "SimSample/" + prof.Name, Fn: simSample(prof), AllocsTolerance: sampleAllocsTolerance},
			Bench{Name: "Explore/SB/" + prof.Name, Fn: exploreShape(prof, "SB"), AllocsTolerance: exploreAllocsTolerance},
			Bench{Name: "Explore/MP/" + prof.Name, Fn: exploreShape(prof, "MP"), AllocsTolerance: exploreAllocsTolerance},
		)
	}
	out = append(out, Bench{Name: "ExploreGate/jvm/armv8", Fn: exploreGate("jvm", arch.ARMv8()), AllocsTolerance: exploreAllocsTolerance})
	return out
}

// Result is one benchmark measurement in the BENCH_*.json schema.
type Result struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// RunsPerSec and StatesPerSec are the explorer rows' throughput:
	// machine runs and distinct deduplicated states per second.
	RunsPerSec   float64 `json:"runs_per_sec,omitempty"`
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
	// allocsTolerance is the body's Bench.AllocsTolerance; Compare reads
	// it from the current run, so reports do not carry it.
	allocsTolerance float64
}

// Host identifies the machine a report was measured on.  ns/op rows
// compare meaningfully only between reports from the same host.
type Host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost describes the running machine; CPU is the first "model
// name" of /proc/cpuinfo where that exists, else the architecture.
func CurrentHost() Host {
	h := Host{
		CPU:        runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// Report is the BENCH_*.json document: the microbenchmark suite plus an
// optional end-to-end wall-time measurement of `wmmbench -short all` and
// an optional repeated-sweep cache-effectiveness measurement.  A ledger
// entry also carries the rows of the commit it changes (Parent),
// measured on the same Host, so its before and after numbers compare.
type Report struct {
	GoOS            string       `json:"goos"`
	GoArch          string       `json:"goarch"`
	Host            *Host        `json:"host,omitempty"`
	Short           bool         `json:"short"`
	ShortAllSeconds float64      `json:"short_all_seconds,omitempty"`
	RepeatedSweep   *SweepReport `json:"repeated_sweep,omitempty"`
	Results         []Result     `json:"results"`
	Parent          []Result     `json:"parent,omitempty"`
}

// Run executes the suite via testing.Benchmark and collects Results.
func Run(short bool, logf func(format string, args ...any)) []Result {
	var out []Result
	for _, pb := range Benchmarks(short) {
		r := testing.Benchmark(pb.Fn)
		res := Result{
			Name:            pb.Name,
			NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:     float64(r.AllocsPerOp()),
			BytesPerOp:      float64(r.AllocedBytesPerOp()),
			allocsTolerance: pb.AllocsTolerance,
		}
		if pb.Cycles > 0 {
			res.CyclesPerSec = float64(pb.Cycles) * float64(r.N) / r.T.Seconds()
		}
		res.RunsPerSec, res.StatesPerSec = r.Extra["runs/s"], r.Extra["states/s"]
		if logf != nil {
			rate := fmt.Sprintf("%14.0f cycles/sec", res.CyclesPerSec)
			if res.RunsPerSec > 0 {
				rate = fmt.Sprintf("%14.0f runs/sec %10.0f states/sec", res.RunsPerSec, res.StatesPerSec)
			}
			logf("%-22s %12.0f ns/op %8.0f allocs/op %s\n", pb.Name, res.NsPerOp, res.AllocsPerOp, rate)
		}
		out = append(out, res)
	}
	return out
}

// Compare checks cur against base with a relative tolerance on ns/op (CI
// hosts are noisy; tol is typically 0.20) and an exact gate on allocs/op
// (allocation counts are deterministic, so any growth is a regression),
// except that a body declaring an AllocsTolerance may grow by that
// fraction.  It returns one message per violation.
func Compare(base, cur []Result, tol float64) []string {
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var bad []string
	for _, c := range cur {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol) {
			bad = append(bad, fmt.Sprintf("%s: ns/op %.0f exceeds baseline %.0f by more than %.0f%%",
				c.Name, c.NsPerOp, b.NsPerOp, tol*100))
		}
		if c.AllocsPerOp > b.AllocsPerOp*(1+c.allocsTolerance) {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f",
				c.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return bad
}
