package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/arch"
	"repro/internal/litmus"
	"repro/internal/litmus/gen"
	"repro/wmm/client"
)

// Litmus campaigns are the second job family the sharded backend
// carries: a generated batch of litmus tests (internal/litmus/gen) is
// cut into contiguous index ranges and fanned out through the same
// queue, leases and workers as experiment jobs.  Nothing but the shard
// descriptor crosses the wire — generation is a pure function of
// (seed, count, max_threads), so every party regenerates the identical
// batch and a shard executes byte-identically wherever it lands.

// maxLitmusCount bounds a campaign; the recipe space saturates long
// before this, and gen.Generate fails loudly when a Count is impossible.
const maxLitmusCount = 20_000

// litmusDefaults fills a campaign spec's zero values in.
func litmusDefaults(sp client.LitmusSpec) client.LitmusSpec {
	if sp.GenSeed == 0 {
		sp.GenSeed = 1
	}
	if sp.MaxThreads == 0 {
		sp.MaxThreads = 4
	}
	if sp.Trials == 0 {
		sp.Trials = 400
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.ShardSize == 0 {
		sp.ShardSize = 50
	}
	return sp
}

// validateLitmus rejects malformed campaign specs, including configs the
// generator cannot satisfy (a dry generation is cheap: recipes only, no
// programs).
func validateLitmus(sp client.LitmusSpec) error {
	if _, err := arch.ByName(sp.Arch); err != nil {
		return err
	}
	if sp.Count <= 0 || sp.Count > maxLitmusCount {
		return fmt.Errorf("count must be in [1,%d], got %d", maxLitmusCount, sp.Count)
	}
	if sp.MaxThreads < 2 || sp.MaxThreads > 4 {
		return fmt.Errorf("max_threads must be in [2,4], got %d", sp.MaxThreads)
	}
	if sp.Trials < 0 || sp.Seed < 0 || sp.GenSeed < 0 || sp.ShardSize < 0 || sp.Parallel < 0 || sp.TimeoutMs < 0 {
		return fmt.Errorf("trials, seeds, shard_size, parallel and timeout_ms must be >= 0")
	}
	if _, err := gen.Generate(gen.Config{Seed: sp.GenSeed, Count: sp.Count, MaxThreads: sp.MaxThreads}); err != nil {
		return err
	}
	return nil
}

// litmusShards cuts a campaign into contiguous index ranges.
func litmusShards(sp client.LitmusSpec) []LitmusShard {
	var out []LitmusShard
	for lo := 0; lo < sp.Count; lo += sp.ShardSize {
		hi := lo + sp.ShardSize
		if hi > sp.Count {
			hi = sp.Count
		}
		out = append(out, LitmusShard{
			Arch:       sp.Arch,
			GenSeed:    sp.GenSeed,
			Count:      sp.Count,
			MaxThreads: sp.MaxThreads,
			Trials:     sp.Trials,
			Seed:       sp.Seed,
			Lo:         lo,
			Hi:         hi,
		})
	}
	return out
}

// LitmusShard is one dispatched unit of a campaign: tests [Lo,Hi) of
// the batch that (GenSeed, Count, MaxThreads) deterministically
// generates.  The executing process regenerates the batch and runs its
// slice; shipping indices instead of programs is what keeps the wire
// format trivial and the execution location irrelevant.
type LitmusShard struct {
	Arch       string `json:"arch"`
	GenSeed    int64  `json:"gen_seed,omitempty"`
	Count      int    `json:"count"`
	MaxThreads int    `json:"max_threads,omitempty"`
	Trials     int    `json:"trials,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
}

// name is the shard's job identity on the queue and in results.
func (sh LitmusShard) name() string { return fmt.Sprintf("shard-%05d-%05d", sh.Lo, sh.Hi) }

// litmusTestOutcome is one test's outcome inside a shard result, the
// row format of the shard's canonical Output JSON.
type litmusTestOutcome struct {
	Name    string `json:"name"`
	Trials  int    `json:"trials"`
	Hits    int    `json:"hits"`
	Relaxed int    `json:"relaxed"`
}

// RunLitmusShard regenerates the shard's batch and runs its slice,
// returning the outcome counts as a Result whose Output is a canonical
// JSON array (one row per test, generation order).  Like experiment
// jobs, the Result is byte-identical (wall time aside) in whichever
// process executes it.  The error return is reserved for protocol-level
// mismatches (unknown arch, inconsistent indices); execution failures
// are contained in the Result.
func RunLitmusShard(ctx context.Context, sh LitmusShard) (*Result, error) {
	prof, err := arch.ByName(sh.Arch)
	if err != nil {
		return nil, err
	}
	if sh.Lo < 0 || sh.Hi > sh.Count || sh.Lo >= sh.Hi {
		return nil, fmt.Errorf("litmus shard range [%d,%d) outside batch of %d", sh.Lo, sh.Hi, sh.Count)
	}
	recipes, err := gen.Generate(gen.Config{Seed: sh.GenSeed, Count: sh.Count, MaxThreads: sh.MaxThreads})
	if err != nil {
		return nil, err
	}

	r := &litmus.Runner{Prof: prof, Trials: sh.Trials, Seed: sh.Seed}
	res := &Result{
		Experiment: sh.name(),
		Desc:       fmt.Sprintf("generated litmus tests [%d,%d) of %d on %s", sh.Lo, sh.Hi, sh.Count, prof.Name),
	}
	finish := func(status, errMsg string, outs []litmusTestOutcome) *Result {
		raw, merr := json.MarshalIndent(outs, "", "  ")
		if merr != nil {
			status, errMsg = StatusFailed, merr.Error()
		} else {
			res.Output = string(raw)
		}
		res.Status = status
		res.Err = errMsg
		return res
	}

	outs := make([]litmusTestOutcome, 0, sh.Hi-sh.Lo)
	for _, rc := range recipes[sh.Lo:sh.Hi] {
		if err := ctx.Err(); err != nil {
			return finish(StatusCancelled, err.Error(), outs), nil
		}
		tst := rc.Build()
		out, err := r.Run(tst)
		if err != nil {
			status := StatusFailed
			if len(outs) > 0 {
				status = StatusIncomplete
			}
			return finish(status, fmt.Sprintf("%s: %v", tst.Name, err), outs), nil
		}
		outs = append(outs, litmusTestOutcome{Name: tst.Name, Trials: out.Trials, Hits: out.Hits, Relaxed: out.Relaxed})
		res.Measurements++
		res.Samples += out.Trials
	}
	return finish(StatusOK, "", outs), nil
}
