package runstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// SegmentStore is the run store: all runs share a sequence of
// append-only log segments under one directory.  The layout is three
// kinds of file:
//
//	MANIFEST.json      {"sealed":["compact-00000007.log","seg-00000008.log"],"seq":9}
//	seg-N.log          record lines; exactly one is active, the rest sealed
//	compact-N.log      a folded rewrite of older sealed segments
//
// Every record line carries the run ID, so a segment is
// self-describing.  Appends go to the single active segment and fsync
// before returning.  An append that finds the active segment full
// (maxSegmentBytes) first seals it — appends it to the manifest's
// `sealed` list, committed via temp+fsync+rename — and starts a fresh
// active segment.  Sealed segments are immutable forever after.
//
// Replay folds the manifest's sealed segments in list order, then the
// segments the manifest does not name, in sequence order.  List order
// is authoritative, not segment numbers: a compacted segment carries a
// newer sequence number than the segments it folded, yet must replay
// before any segment written after them.
//
// Opening a store only reads, and Load reads the manifest and the
// directory afresh on every call, so a handle opened beside a live
// writer (an HA standby) neither races that writer nor replays an old
// view of its files.  The repairs a crash can leave for the writer run
// at a handle's first mutation, and again at the first mutation after
// Fence, working from what is on disk then (see writableLocked).
//
// Compaction is crash-safe by construction: fold the sealed segments
// into a new compact-N.log (invisible until referenced), fsync it,
// commit a manifest naming it and the segments it folded, and only then
// delete those.  A crash leaves the old manifest (the compact file is an
// orphan) or the new one (the folded segments may remain, but it names
// them); either way no replay reads the leftovers, and the next writer
// removes them.  Run deletion appends a tombstone record
// ({"rec":"delete"}); compaction physically reclaims tombstoned runs.
type SegmentStore struct {
	cacheFS
	leaseFS

	dir string

	// maxSegmentBytes seals the active segment once it reaches this
	// size; compactAfter folds sealed segments into one when their
	// count reaches it (0 disables auto-compaction).  Only tests change
	// the defaults.
	maxSegmentBytes int64
	compactAfter    int

	// Fault, when set, injects faults at the append boundary
	// (faultinject.PointStoreAppend, key "<id>/<rec>"), before the
	// record is written.  Set it before handing the store to a server.
	Fault *faultinject.Injector

	// The writer state: man and the active segment are this handle's
	// view while it writes, valid only while active is non-nil.
	mu         sync.Mutex
	man        manifest
	active     *os.File
	activeName string
	activeSize int64
	closed     bool
}

const (
	manifestFile        = "MANIFEST.json"
	defaultSegBytes     = 8 << 20
	defaultCompactAfter = 6
)

// manifest is the store's committed view of its immutable segments.
type manifest struct {
	// Sealed lists immutable segment files in replay order.
	Sealed []string `json:"sealed"`
	// Seq is the highest segment sequence number ever committed.
	Seq int `json:"seq"`
	// Folded lists the segments the last compaction folded into Sealed:
	// never replayed or adopted, only removed.
	Folded []string `json:"folded,omitempty"`
}

// OpenSegment opens the segment store at dir, creating the directory
// if needed.  It writes no store file.  It refuses a directory holding
// run files of the per-run JSONL layout, which is no longer read.
func OpenSegment(dir string) (*SegmentStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: create %s: %w", dir, err)
	}
	s := &SegmentStore{
		cacheFS:         cacheFS{root: dir},
		leaseFS:         leaseFS{root: dir},
		dir:             dir,
		maxSegmentBytes: defaultSegBytes,
		compactAfter:    defaultCompactAfter,
	}
	v, err := s.scan()
	if err != nil {
		return nil, err
	}
	if v.jsonl != "" {
		return nil, fmt.Errorf("runstore: %s holds %s: the per-run JSONL layout is no longer read; "+
			"move its *.jsonl files out or use a new directory (%s/ is kept, both layouts share it)",
			dir, v.jsonl, filepath.Join(dir, cacheDir))
	}
	if err := s.Ping(); err != nil {
		return nil, err
	}
	return s, nil
}

// Ping probes that the store directory accepts writes (backs GET
// /readyz).
func (s *SegmentStore) Ping() error {
	f, err := os.CreateTemp(s.dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("runstore: %s not writable: %w", s.dir, err)
	}
	f.Close()
	os.Remove(f.Name())
	return nil
}

// Close releases the active segment's file handle.  Records already
// appended stay durable; a reopened store resumes appending to the same
// segment.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.dropWriterLocked()
}

// Fence arms the fencing token (see Storage.Fence) and drops the
// handle's writer state, so the first mutation under the new token
// repairs and reopens the directory as it is then.
func (s *SegmentStore) Fence(owner string, term int64) error {
	if err := s.leaseFS.Fence(owner, term); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropWriterLocked()
}

// segSeq extracts the sequence number from "seg-N.log"/"compact-N.log"
// names, or -1.
func segSeq(name string) int {
	base := strings.TrimSuffix(name, ".log")
	if base == name {
		return -1
	}
	for _, prefix := range []string{"seg-", "compact-"} {
		if rest, ok := strings.CutPrefix(base, prefix); ok {
			if n, err := strconv.Atoi(rest); err == nil && n >= 0 {
				return n
			}
		}
	}
	return -1
}

// view is one read of the manifest and the directory listing.
type view struct {
	man     manifest
	loose   []string // seg-*.log files the manifest does not name, in sequence order
	orphans []string // compaction output the manifest does not name, and segments it folded
	jsonl   string   // a run file of the per-run JSONL layout, if any
}

// scan reads the manifest, then lists the directory.  In that order a
// segment sealed or started by another handle in between still shows
// up, as loose.
func (s *SegmentStore) scan() (view, error) {
	var v view
	data, err := os.ReadFile(filepath.Join(s.dir, manifestFile))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &v.man); err != nil {
			// The manifest is committed atomically, so a torn one is real
			// corruption — refuse to guess at replay order.
			return v, fmt.Errorf("runstore: corrupt manifest %s: %w", manifestFile, err)
		}
	case os.IsNotExist(err):
		// Fresh store.
	default:
		return v, fmt.Errorf("runstore: read manifest: %w", err)
	}

	sealed := make(map[string]bool, len(v.man.Sealed))
	for _, name := range v.man.Sealed {
		sealed[name] = true
		v.man.Seq = max(v.man.Seq, segSeq(name))
	}
	folded := make(map[string]bool, len(v.man.Folded))
	for _, name := range v.man.Folded {
		folded[name] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return v, fmt.Errorf("runstore: read %s: %w", s.dir, err)
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir() || sealed[name]:
		case strings.HasSuffix(name, ".jsonl"):
			v.jsonl = name
		case segSeq(name) < 0:
		case folded[name] || strings.HasPrefix(name, "compact-"):
			// Left by a compaction: folded input its removals missed, or
			// output whose manifest never committed.
			v.orphans = append(v.orphans, name)
		default:
			v.loose = append(v.loose, name)
			v.man.Seq = max(v.man.Seq, segSeq(name))
		}
	}
	sort.Slice(v.loose, func(i, j int) bool { return segSeq(v.loose[i]) < segSeq(v.loose[j]) })
	return v, nil
}

// writableLocked admits a mutation: the handle is open and the fence
// holds, checked first so that a fenced handle repairs nothing either.
// At the handle's first mutation, and the first after Fence, it readies
// the writer from what is on disk now, making the repairs a crash can
// leave: compaction leftovers are removed, loose segments other
// than the newest are adopted into the manifest in sequence order (a
// crash between sealing and the manifest commit), and the newest one is
// reopened as the active segment with any torn tail trimmed.
func (s *SegmentStore) writableLocked() error {
	if s.closed {
		return fmt.Errorf("runstore: store closed")
	}
	if err := s.checkFence(); err != nil {
		return err
	}
	if s.active != nil {
		return nil
	}
	v, err := s.scan()
	if err != nil {
		return err
	}
	for _, name := range v.orphans {
		os.Remove(filepath.Join(s.dir, name))
	}
	s.man = v.man
	if len(v.loose) == 0 {
		return s.newActiveLocked()
	}
	last := len(v.loose) - 1
	if last > 0 {
		s.man.Sealed = append(s.man.Sealed, v.loose[:last]...)
		if err := s.writeManifest(s.man); err != nil {
			return err
		}
	}
	name := v.loose[last]
	path := filepath.Join(s.dir, name)
	// Trim a torn tail — bytes past the last newline are a crash
	// mid-append — so new records never concatenate onto a partial
	// line.  (Replay would drop the merged garbage line, silently
	// losing the first post-restart record.)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("runstore: read active segment: %w", err)
	}
	size := int64(bytes.LastIndexByte(data, '\n') + 1)
	if size < int64(len(data)) {
		if err := os.Truncate(path, size); err != nil {
			return fmt.Errorf("runstore: trim torn segment tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: reopen active segment: %w", err)
	}
	s.active, s.activeName, s.activeSize = f, name, size
	return nil
}

// dropWriterLocked closes the active segment; the next mutation reopens
// the store from disk.
func (s *SegmentStore) dropWriterLocked() error {
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// newActiveLocked starts a fresh active segment.
func (s *SegmentStore) newActiveLocked() error {
	seq := s.man.Seq + 1
	name := fmt.Sprintf("seg-%08d.log", seq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: create segment %s: %w", name, err)
	}
	s.man.Seq = seq
	s.active, s.activeName, s.activeSize = f, name, 0
	return nil
}

// writeManifest commits m as the manifest (temp + fsync + rename).
func (s *SegmentStore) writeManifest(m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: marshal manifest: %w", err)
	}
	return commitFile(filepath.Join(s.dir, manifestFile), append(data, '\n'))
}

// appendRec durably appends one record to the active segment, first
// sealing (and compacting) if the segment is full.  A nil error means
// the record is durable; any error means it was not written.
func (s *SegmentStore) appendRec(rec Record) error {
	if err := s.Fault.Fire(faultinject.PointStoreAppend, rec.ID+"/"+rec.Rec, 0); err != nil {
		return err
	}
	if err := validateRunID(rec.ID); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: marshal %s record: %w", rec.Rec, err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.activeSize >= s.maxSegmentBytes {
		if err := s.sealLocked(); err != nil {
			return err
		}
		if s.compactAfter > 0 && len(s.man.Sealed) >= s.compactAfter {
			if err := s.compactLocked(); err != nil {
				return err
			}
		}
	}
	_, err = s.active.Write(line)
	if err == nil {
		err = s.active.Sync()
	}
	if err != nil {
		// Cut the record back out, and let the next mutation reopen the
		// segment from disk (trimming what this cut could not).
		s.active.Truncate(s.activeSize)
		s.dropWriterLocked()
		return fmt.Errorf("runstore: append to %s: %w", s.activeName, err)
	}
	s.activeSize += int64(len(line))
	return nil
}

// sealLocked makes the active segment immutable and starts a new one.
// On failure the writer state is dropped, so the next mutation repairs
// from disk whatever part of the seal landed.
func (s *SegmentStore) sealLocked() error {
	if err := s.dropWriterLocked(); err != nil {
		return fmt.Errorf("runstore: seal %s: %w", s.activeName, err)
	}
	s.man.Sealed = append(s.man.Sealed, s.activeName)
	if err := s.writeManifest(s.man); err != nil {
		return err
	}
	return s.newActiveLocked()
}

// compact folds every sealed segment — after first sealing the active
// one if it holds records — into a single compact segment.  appendRec
// triggers it via compactAfter.
func (s *SegmentStore) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.activeSize > 0 {
		if err := s.sealLocked(); err != nil {
			return err
		}
	}
	if len(s.man.Sealed) == 0 {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites all sealed segments as one folded compact
// segment and commits a manifest referencing only it.
func (s *SegmentStore) compactLocked() error {
	fold := newRecordFold()
	for _, name := range s.man.Sealed {
		if err := foldFile(filepath.Join(s.dir, name), fold); err != nil {
			return fmt.Errorf("runstore: compact read %s: %w", name, err)
		}
	}
	seq := s.man.Seq + 1
	name := fmt.Sprintf("compact-%08d.log", seq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: create %s: %w", name, err)
	}
	w := bufio.NewWriter(f)
	for _, id := range fold.order {
		if err := writeFolded(w, fold.runs[id]); err != nil {
			f.Close()
			os.Remove(filepath.Join(s.dir, name))
			return err
		}
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(filepath.Join(s.dir, name))
		return fmt.Errorf("runstore: write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(filepath.Join(s.dir, name))
		return fmt.Errorf("runstore: close %s: %w", name, err)
	}

	// The manifest rewrite is compaction's commit point: re-validate the
	// fence here, after the (potentially long) fold, so a coordinator
	// deposed mid-compaction cannot publish a manifest over the rival's.
	if err := s.checkFence(); err != nil {
		os.Remove(filepath.Join(s.dir, name))
		return err
	}
	next := manifest{Sealed: []string{name}, Seq: seq, Folded: s.man.Sealed}
	if err := s.writeManifest(next); err != nil {
		os.Remove(filepath.Join(s.dir, name))
		return err
	}
	s.man = next
	// The new manifest is the commit point.  It names the folded
	// segments, so a failed removal or a crash here leaves files that no
	// replay reads (replaying them again would repeat their assign
	// records) and the next writer removes.
	for _, n := range next.Folded {
		os.Remove(filepath.Join(s.dir, n))
	}
	return nil
}

// writeFolded re-serialises one folded run as record lines.
func writeFolded(w *bufio.Writer, run *RunRecord) error {
	write := func(rec Record) error {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("runstore: compact marshal: %w", err)
		}
		line = append(line, '\n')
		_, err = w.Write(line)
		return err
	}
	if err := write(Record{Rec: "spec", ID: run.ID, Time: run.Started, Spec: run.Spec}); err != nil {
		return err
	}
	for _, e := range run.Experiments {
		if err := write(Record{Rec: "experiment", ID: run.ID, Name: e.Name, Result: e.Result}); err != nil {
			return err
		}
	}
	for _, a := range run.Assignments {
		if err := write(Record{Rec: "assign", ID: run.ID, Time: a.Time, Name: a.Name, Worker: a.Worker}); err != nil {
			return err
		}
	}
	if run.EndState != "" {
		if err := write(Record{Rec: "end", ID: run.ID, Time: run.Finished, State: run.EndState, Error: run.EndError}); err != nil {
			return err
		}
	}
	return nil
}

// Begin records a run's submission: its identity and spec.
func (s *SegmentStore) Begin(id string, spec json.RawMessage, at time.Time) error {
	return s.appendRec(Record{Rec: "spec", ID: id, Time: at, Spec: spec})
}

// Checkpoint records one completed experiment.
func (s *SegmentStore) Checkpoint(id, experiment string, result json.RawMessage) error {
	return s.appendRec(Record{Rec: "experiment", ID: id, Time: time.Now(), Name: experiment, Result: result})
}

// Assign records the dispatch of one experiment job to a worker.
func (s *SegmentStore) Assign(id, experiment, worker string) error {
	return s.appendRec(Record{Rec: "assign", ID: id, Time: time.Now(), Name: experiment, Worker: worker})
}

// End records a run's terminal state.
func (s *SegmentStore) End(id, state, errMsg string) error {
	return s.appendRec(Record{Rec: "end", ID: id, Time: time.Now(), State: state, Error: errMsg})
}

// Delete appends a tombstone hiding the run from replay; compaction
// physically reclaims it.
func (s *SegmentStore) Delete(id string) error {
	return s.appendRec(Record{Rec: "delete", ID: id, Time: time.Now()})
}

// CachePut shadows the embedded cacheFS method with a fence check: a
// deposed coordinator must not mutate the shared cache either.  (Reads
// and CacheSweep stay unfenced — entries are immutable and content-
// addressed, so removing one can at worst cost the rival a re-compute.)
func (s *SegmentStore) CachePut(key string, data []byte) error {
	if err := s.checkFence(); err != nil {
		return err
	}
	return s.cacheFS.CachePut(key, data)
}

// Load replays every run, in run-ID order (run-2 before run-10).  Each
// call reads the manifest and the directory afresh, so it sees every
// record any handle on the directory has committed.  A segment that
// vanishes mid-replay was folded by a compaction another handle
// committed meanwhile, so Load replays the new manifest; a segment
// still missing on the third attempt is an error, not a gap.
func (s *SegmentStore) Load() ([]*RunRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for attempt := 1; ; attempt++ {
		v, err := s.scan()
		if err != nil {
			return nil, err
		}
		fold := newRecordFold()
		for _, name := range append(v.man.Sealed, v.loose...) {
			if err = foldFile(filepath.Join(s.dir, name), fold); err != nil {
				break
			}
		}
		if os.IsNotExist(err) && attempt < 3 {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("runstore: replay: %w", err)
		}
		runs := make([]*RunRecord, 0, len(fold.order))
		for _, id := range fold.order {
			runs = append(runs, fold.runs[id])
		}
		sortRuns(runs)
		return runs, nil
	}
}

// recordFold accumulates the replayed state of every run across
// segment boundaries.
type recordFold struct {
	runs  map[string]*RunRecord
	order []string
}

func newRecordFold() *recordFold {
	return &recordFold{runs: map[string]*RunRecord{}}
}

// apply folds one record; records are self-describing via ID.
func (f *recordFold) apply(rec Record) {
	id := rec.ID
	if id == "" {
		return
	}
	run := f.runs[id]
	switch rec.Rec {
	case "spec":
		if run != nil {
			return // first spec wins
		}
		f.runs[id] = &RunRecord{ID: id, Started: rec.Time, Spec: rec.Spec}
		f.order = append(f.order, id)
	case "experiment":
		if run == nil || rec.Name == "" {
			return
		}
		for i := range run.Experiments {
			if run.Experiments[i].Name == rec.Name {
				run.Experiments[i].Result = rec.Result
				return
			}
		}
		run.Experiments = append(run.Experiments, ExperimentRecord{Name: rec.Name, Result: rec.Result})
	case "assign":
		if run == nil || rec.Name == "" {
			return
		}
		run.Assignments = append(run.Assignments, AssignRecord{Name: rec.Name, Worker: rec.Worker, Time: rec.Time})
	case "end":
		if run == nil {
			return
		}
		run.EndState = rec.State
		run.EndError = rec.Error
		run.Finished = rec.Time
	case "delete":
		if run == nil {
			return
		}
		delete(f.runs, id)
		for i, oid := range f.order {
			if oid == id {
				f.order = append(f.order[:i], f.order[i+1:]...)
				break
			}
		}
	}
}

// foldFile replays one segment file into the fold.  A record counts once
// its newline is written: an unterminated final line is a torn write or
// an append still in flight, and is skipped, as is any unparseable
// line.  The fsynced prefix is always a consistent state.
func foldFile(path string, fold *recordFold) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // results can be large
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		return 0, nil, nil
	})
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		fold.apply(rec)
	}
	return sc.Err()
}
