package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	metricsreg "repro/internal/metrics"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks (numpy's default method).
// xs need not be sorted; NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0: a per-job figure for a layer the
// workload never enters reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot is one reading of the program's metrics registry, keyed by
// series as rendered in the text exposition ("name{label=...}").
type snapshot map[string]float64

// readRegistry renders reg and parses every sample line.
func readRegistry(reg *metricsreg.Registry) snapshot {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	return parseExposition(buf.Bytes())
}

// parseExposition parses Prometheus text exposition sample lines;
// comments and malformed lines are skipped.
func parseExposition(text []byte) snapshot {
	out := snapshot{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the named metric whose labels contain all of
// the given label fragments (e.g. `method="GET"`).
func (s snapshot) sum(name string, labels ...string) float64 {
	var t float64
	for key, v := range s {
		base, rest, _ := strings.Cut(key, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after.sum − before.sum for the named metric.
func delta(before, after snapshot, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is the subset of runtime/metrics the go layer reports.
type goStats struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
}

func readGoStats() goStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var g goStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = samples[1].Value.Float64()
	}
	return g
}

// stealTicks reads the host's cumulative steal time from /proc/stat in
// clock ticks (USER_HZ, 100 on Linux); -1 when unavailable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// hostInfo is the host fingerprint printed in every report.
type hostInfo struct {
	CPUModel   string
	NProc      int
	GOMAXPROCS int
	GoVersion  string
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
