package engine

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/optimize"
)

// Optimizer jobs are the third job family the sharded backend carries:
// a fence-strategy search (internal/optimize) decomposes into cells —
// soundness gates, candidate measurements, sensitivity fits — and the
// cells fan out through the same queue, leases and workers as
// experiment jobs and litmus shards.  A cell is a pure function of its
// descriptor, so it executes byte-identically wherever it lands, and —
// unlike litmus shards — cells are content-addressed: resubmitting the
// same spec reuses the cluster result cache instead of re-measuring.

// OptimizeSpec is the body of POST /api/v1/optimize: one fence-strategy
// optimizer job (see optimize.Spec for the search parameters) plus the
// execution controls shared by every v1 job resource.
type OptimizeSpec struct {
	optimize.Spec
	// Parallel cells in flight at once (0 = server default).
	Parallel int `json:"parallel,omitempty"`
	// TimeoutMs bounds the whole job; 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the cluster result cache: every cell executes
	// even when a prior job already measured the identical cell.
	NoCache bool `json:"nocache,omitempty"`
	// Tenant names the fair-share queue and quota bucket the job is
	// accounted to (the X-WMM-Tenant header wins; empty = "default").
	Tenant string `json:"tenant,omitempty"`
}

// withDefaults normalises the embedded search spec; the wire-level
// controls keep their zero defaults until submission resolves them.
func (sp OptimizeSpec) withDefaults() OptimizeSpec {
	sp.Spec = sp.Spec.WithDefaults()
	return sp
}

// validate checks the normalised form.
func (sp OptimizeSpec) validate() error {
	if err := sp.Spec.Validate(); err != nil {
		return err
	}
	if sp.Parallel < 0 || sp.TimeoutMs < 0 {
		return fmt.Errorf("optimize: parallel and timeout_ms must be >= 0")
	}
	return nil
}

// OptimizeCellKey is the content hash of one optimizer cell: the engine
// version (gate and measurement semantics), the cell identity, and the
// normalised spec it was cut from.  Equal keys produce byte-identical
// results, so a resubmitted job's cells resolve from the result cache.
func OptimizeCellKey(cell optimize.Cell) (string, error) {
	spec, err := json.Marshal(cell.Spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|optimize=%s|spec=%s", EngineVersion, cell.Name(), spec)))
	return fmt.Sprintf("%x", sum), nil
}

// RunOptimizeCell executes one optimizer cell in the calling process,
// returning its outcome as a Result whose Output is the cell result's
// canonical JSON.  Its samples run through workload.Measure;
// Engine.RunCell runs the same cell with its samples on the engine's
// pool.  The error return is reserved for protocol-level mismatches
// (malformed cell or spec); execution failures — an exploration that
// exceeds its budget, a measurement error — are contained in the
// Result, exactly as for experiment jobs and litmus shards.
func RunOptimizeCell(ctx context.Context, cell optimize.Cell) (*Result, error) {
	return runOptimizeCell(ctx, cell, nil)
}

// runOptimizeCell is RunOptimizeCell measuring through meas.  A
// measurement cut short by cancellation yields a cancelled Result, as an
// experiment's does.
func runOptimizeCell(ctx context.Context, cell optimize.Cell, meas core.Measurer) (*Result, error) {
	sp := cell.Spec.WithDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch cell.Kind {
	case "gate", "measure", "fit":
	default:
		return nil, fmt.Errorf("optimize: unknown cell kind %q", cell.Kind)
	}
	res := &Result{
		Experiment: cell.Name(),
		Desc:       fmt.Sprintf("optimizer %s cell (%s on %s)", cell.Kind, sp.Platform, sp.Arch),
	}
	if err := ctx.Err(); err != nil {
		res.Status = StatusCancelled
		res.Err = err.Error()
		return res, nil
	}
	cr, err := optimize.RunCell(cell, meas)
	if err != nil {
		res.Status = StatusFailed
		res.Err = err.Error()
		if res.Canceled() {
			res.Status = StatusCancelled
		}
		return res, nil
	}
	raw, err := json.MarshalIndent(cr, "", "  ")
	if err != nil {
		res.Status = StatusFailed
		res.Err = err.Error()
		return res, nil
	}
	res.Status = StatusOK
	res.Output = string(raw)
	switch cell.Kind {
	case "gate":
		res.Measurements = len(cr.Gate)
		for _, g := range cr.Gate {
			res.Samples += g.Runs
		}
	default:
		res.Measurements = 1
		res.Samples = sp.Samples
	}
	return res, nil
}

// decodeCellResult recovers the optimizer cell outcome embedded in a
// job Result's Output, rejecting results that are not a successful
// execution of the named cell.
func decodeCellResult(res *Result, name string) (optimize.CellResult, error) {
	var cr optimize.CellResult
	if res == nil {
		return cr, fmt.Errorf("optimize: cell %s produced no result", name)
	}
	if res.Status != StatusOK {
		msg := res.Err
		if msg == "" {
			msg = res.Status
		}
		return cr, fmt.Errorf("optimize: cell %s: %s", name, msg)
	}
	if err := json.Unmarshal([]byte(res.Output), &cr); err != nil {
		return cr, fmt.Errorf("optimize: cell %s: undecodable output: %v", name, err)
	}
	if cr.Cell != name {
		return cr, fmt.Errorf("optimize: cell %s: output names cell %q", name, cr.Cell)
	}
	return cr, nil
}
