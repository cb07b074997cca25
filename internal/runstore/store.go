// Package runstore persists wmmd's jobs so that a restart — graceful or
// a crash — does not throw away hours of progress.  Every job (a run, a
// litmus campaign, an optimizer job) is a sequence of self-describing
// record lines, each naming its job, appended to log segments that all
// jobs share (SegmentStore holds the file layout):
//
//	{"rec":"spec", "id":"run-1", "time":..., "spec":{...}}                     submission
//	{"rec":"experiment", "id":"run-1", "time":..., "name":"fig5", "result":{...}}  checkpoint
//	{"rec":"assign", "id":"run-1", "time":..., "name":"fig5", "worker":"w1"}     dispatch audit
//	{"rec":"end", "id":"run-1", "time":..., "state":"done", "error":""}          terminal state
//	{"rec":"delete", "id":"run-1", "time":...}                                  tombstone
//
// Every append is flushed and fsynced before it returns, so a record is
// durable the moment the caller proceeds.  A job with a spec record but
// no end record is *interrupted*: on startup the server replays the
// store, restores finished jobs as queryable history, and resumes
// interrupted jobs from their checkpointed cells.
//
// The store knows nothing about the engine's types: specs and results
// cross this boundary as raw JSON, which keeps the dependency arrow
// pointing from the engine to the store and makes the on-disk format a
// plain contract.  Replay is tolerant: a record truncated by a crash
// mid-write (no trailing newline, invalid JSON) is dropped rather than
// poisoning the run, which is exactly the append-only format's point —
// the prefix that did fsync is always a consistent state.
package runstore

import (
	"encoding/json"
	"time"
)

// Record is one on-disk line.
type Record struct {
	Rec    string          `json:"rec"` // "spec" | "experiment" | "assign" | "end" | "delete"
	ID     string          `json:"id,omitempty"`
	Time   time.Time       `json:"time"`
	Spec   json.RawMessage `json:"spec,omitempty"`   // on "spec"
	Name   string          `json:"name,omitempty"`   // on "experiment" and "assign"
	Result json.RawMessage `json:"result,omitempty"` // on "experiment"
	Worker string          `json:"worker,omitempty"` // on "assign"
	State  string          `json:"state,omitempty"`  // on "end"
	Error  string          `json:"error,omitempty"`  // on "end"
}

// ExperimentRecord is one checkpointed experiment of a replayed run.
type ExperimentRecord struct {
	Name   string
	Result json.RawMessage
}

// AssignRecord is one recorded dispatch of an experiment job to a
// remote worker under a lease — the audit trail of where a sharded
// run's work went.  Assignments are informational on replay: resume
// correctness rests entirely on experiment checkpoints (an assigned but
// unfinished experiment simply re-executes, byte-identically).
type AssignRecord struct {
	Name   string
	Worker string
	Time   time.Time
}

// RunRecord is one replayed run: the fold of its record sequence.
type RunRecord struct {
	ID      string
	Started time.Time
	Spec    json.RawMessage
	// Experiments holds the last checkpoint per experiment, in first-
	// checkpoint order.
	Experiments []ExperimentRecord
	// Assignments holds every recorded worker assignment, in append
	// order (a re-queued job may appear more than once).
	Assignments []AssignRecord
	// EndState is empty for an interrupted run.
	EndState string
	EndError string
	Finished time.Time
}

// Experiment returns the last checkpointed result for name, or nil.
func (r *RunRecord) Experiment(name string) json.RawMessage {
	for _, e := range r.Experiments {
		if e.Name == name {
			return e.Result
		}
	}
	return nil
}
