package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/wmm/client"
)

// Cell is one unit of dispatched work: an experiment of a run, a shard
// of a litmus campaign, or a gate, measure or fit cell of an optimizer
// job.  The descriptor is self-contained — a pure function of it gives
// the cell's Result wherever it runs — so the same bytes execute in a
// local slot and, over the lease wire, in a remote worker.
type Cell struct {
	// Name identifies the cell within its job: on the queue, in its
	// Result's Experiment field and in uploads.
	Name string
	// Key is the result-cache content hash; "" never consults the cache.
	Key string
	// Kind selects how RunCell reads Desc: "run", "litmus" or "optimize".
	Kind string
	Desc json.RawMessage
}

// newCell encodes a descriptor into a cell.  Descriptors are structs of
// strings, integers and validated finite floats, which always encode.
func newCell(name, key, kind string, desc any) Cell {
	raw, err := json.Marshal(desc)
	if err != nil {
		panic(fmt.Sprintf("engine: encoding %s cell %s: %v", kind, name, err))
	}
	return Cell{Name: name, Key: key, Kind: kind, Desc: raw}
}

// experimentCell is the descriptor of one experiment of a run.
type experimentCell struct {
	Experiment string               `json:"experiment"`
	Samples    int                  `json:"samples,omitempty"`
	Seed       int64                `json:"seed,omitempty"`
	Short      bool                 `json:"short"`
	Adaptive   *client.AdaptiveSpec `json:"adaptive,omitempty"`
}

func (c experimentCell) options() RunOptions {
	return RunOptions{Samples: c.Samples, Seed: c.Seed, Short: c.Short, Adaptive: stopRule(c.Adaptive)}
}

// stopRule converts the wire form of an adaptive rule to the stats rule
// (nil-safe).
func stopRule(a *client.AdaptiveSpec) *stats.StopRule {
	if a == nil {
		return nil
	}
	return &stats.StopRule{
		RelPrecision: a.RelPrecision,
		MinSamples:   a.MinSamples,
		MaxSamples:   a.MaxSamples,
	}
}

// RunCell executes one cell from its wire form.  Local dispatcher slots
// and remote workers both run cells through it, so a cell produces the
// same Result bytes (wall time aside) in whichever process executes it.
// The error return is reserved for protocol-level mismatches (an unknown
// kind, a malformed descriptor, an unknown experiment); execution
// failures are contained in the Result.
func (e *Engine) RunCell(ctx context.Context, kind string, desc []byte) (*Result, error) {
	switch kind {
	case "run":
		var c experimentCell
		if err := json.Unmarshal(desc, &c); err != nil {
			return nil, fmt.Errorf("undecodable experiment cell: %w", err)
		}
		return e.RunExperiment(ctx, c.Experiment, c.options())
	case "litmus":
		var sh LitmusShard
		if err := json.Unmarshal(desc, &sh); err != nil {
			return nil, fmt.Errorf("undecodable litmus shard: %w", err)
		}
		return RunLitmusShard(ctx, sh)
	case "optimize":
		var c optimize.Cell
		if err := json.Unmarshal(desc, &c); err != nil {
			return nil, fmt.Errorf("undecodable optimize cell: %w", err)
		}
		return runOptimizeCell(ctx, c, func(b *workload.Benchmark, env workload.Env, n int, seed int64) (stats.Summary, error) {
			return e.Measure(ctx, b, env, n, seed)
		})
	}
	return nil, fmt.Errorf("unknown cell kind %q", kind)
}
