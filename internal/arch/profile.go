package arch

import "fmt"

// MemFlavor selects the storage-subsystem semantics of a profile.
type MemFlavor uint8

const (
	// MCA is an other-multi-copy-atomic storage subsystem (ARMv8): when a
	// store leaves its core's store buffer it becomes visible to all other
	// cores at once.  Observable weakness then comes from store buffers
	// (with forwarding and out-of-order drain) and from loads being
	// satisfied out of program order in the issue window.
	MCA MemFlavor = iota
	// NonMCA is a non-multi-copy-atomic storage subsystem (POWER): a
	// committed store propagates to each other core independently, so two
	// observers can see two writers' stores in different orders (IRIW).
	NonMCA
)

// String returns a short name for the flavor.
func (f MemFlavor) String() string {
	if f == MCA {
		return "mca"
	}
	return "non-mca"
}

// Latencies collects the timing parameters of a profile, all in core cycles
// unless stated otherwise.  They are calibrated so that the relative costs
// the paper measures (e.g. POWER lwsync ≈ 6.1 ns vs hwsync ≈ 18.9 ns, ARM
// dmb variants indistinguishable in microbenchmarks) are reproduced; see
// EXPERIMENTS.md TXT3.
type Latencies struct {
	ALU int64 // simple integer op
	Mul int64 // integer multiply

	L1Hit  int64 // load hit in the private L1
	L2Hit  int64 // load serviced by the shared L2
	Mem    int64 // load serviced by memory
	L1Fill int64 // additional cycles to install a line after a miss

	StoreCommit int64 // pacing: cycles between successive store-buffer commits
	// StoreDrain is the time from a store reaching the store buffer until
	// it can commit: acquiring exclusive ownership of the line (RFO).
	// It is what makes store→load ordering expensive (dmb ish, hwsync
	// drain waits) and what opens the SB litmus window: loads hit in a
	// few cycles while buffered stores take tens of cycles to commit.
	StoreDrain int64
	Mispredict int64 // branch misprediction restart penalty
	ISBFlush   int64 // pipeline flush cost of isb beyond the mispredict path

	// BarrierIssue is the fixed issue cost per barrier kind, on top of
	// whatever stalls the barrier's semantics impose (store-buffer
	// drains, load-completion waits, propagation acks).
	BarrierIssue [numBarrierKinds]int64

	// AcqIssue/RelIssue are the fixed extra costs of ldar/stlr beyond a
	// plain load/store.
	AcqIssue int64
	RelIssue int64

	// PropMin/PropMax bound the per-destination propagation delay of a
	// committed store on NonMCA profiles.
	PropMin int64
	PropMax int64
	// PropTail is the per-mille probability that one destination of a
	// committed store suffers a long extra propagation delay (a line
	// stuck dirty in a remote cache).  This is what makes WRC/IRIW-style
	// disagreement observable on real non-MCA machines.
	PropTail int
}

// Pipeline collects the core micro-architecture parameters of a profile.
type Pipeline struct {
	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // instructions issued per cycle
	RetireWidth int // instructions retired per cycle
	Window      int // reorder-window capacity
	SBDepth     int // store-buffer capacity

	// BranchPredictorBits sizes the per-core 2-bit predictor table at
	// 1<<BranchPredictorBits entries; small tables alias in macro
	// workloads, which is how the paper's ctrl-strategy micro/macro
	// divergence arises (§4.3.1).
	BranchPredictorBits uint

	// IssueJitter is the per-mille probability that a ready instruction
	// is delayed by one cycle; it models scheduling noise and SMT
	// interference and gives repeated samples their spread.
	IssueJitter int

	// NoLoadSpeculation forbids loads from issuing while an older
	// conditional branch is unresolved, turning control dependencies
	// into load-ordering ones.  It exists for the speculation ablation
	// (DESIGN.md §6); both real profiles leave it false.
	NoLoadSpeculation bool
}

// Profile describes a simulated processor: timing, pipeline shape and
// memory-model structure.
type Profile struct {
	Name    string
	FreqGHz float64 // core frequency; ns = cycles / FreqGHz
	Flavor  MemFlavor
	Lat     Latencies
	Pipe    Pipeline

	// LineWords is the cache-line size in 64-bit words (addresses are
	// word-granular); it controls false sharing.
	LineWords int
	// L1Lines is the number of lines in the direct-mapped private L1.
	L1Lines int
}

// CyclesToNs converts a cycle count to simulated nanoseconds.
func (p *Profile) CyclesToNs(cycles int64) float64 {
	return float64(cycles) / p.FreqGHz
}

// NsToCycles converts nanoseconds to cycles, rounding to nearest.
func (p *Profile) NsToCycles(ns float64) int64 {
	return int64(ns*p.FreqGHz + 0.5)
}

// Validate checks that the profile's parameters are internally consistent.
func (p *Profile) Validate() error {
	switch {
	case p.FreqGHz <= 0:
		return fmt.Errorf("profile %s: non-positive frequency", p.Name)
	case p.Pipe.Window < 2:
		return fmt.Errorf("profile %s: window must hold at least 2 instructions", p.Name)
	case p.Pipe.FetchWidth < 1 || p.Pipe.IssueWidth < 1 || p.Pipe.RetireWidth < 1:
		return fmt.Errorf("profile %s: pipeline widths must be positive", p.Name)
	case p.Pipe.SBDepth < 0:
		return fmt.Errorf("profile %s: negative store-buffer depth", p.Name)
	case p.LineWords < 1 || p.LineWords&(p.LineWords-1) != 0:
		return fmt.Errorf("profile %s: line size must be a positive power of two", p.Name)
	case p.L1Lines < 1 || p.L1Lines&(p.L1Lines-1) != 0:
		return fmt.Errorf("profile %s: L1 line count must be a positive power of two", p.Name)
	case p.Flavor == NonMCA && p.Lat.PropMax < p.Lat.PropMin:
		return fmt.Errorf("profile %s: propagation delay bounds inverted", p.Name)
	}
	return nil
}

// ARMv8 returns a profile modelled on the paper's X-Gene 1: an 8-core
// 2.4 GHz out-of-order ARMv8 with observable weak memory behaviour and
// other-multi-copy-atomic stores.
func ARMv8() *Profile {
	p := &Profile{
		Name:    "armv8",
		FreqGHz: 2.4,
		Flavor:  MCA,
		Lat: Latencies{
			ALU:         1,
			Mul:         4,
			L1Hit:       3,
			L2Hit:       14,
			Mem:         90,
			L1Fill:      2,
			StoreCommit: 3,
			StoreDrain:  14,
			Mispredict:  9,
			ISBFlush:    38,
			AcqIssue:    4,
			RelIssue:    6,
		},
		Pipe: Pipeline{
			FetchWidth:          4,
			IssueWidth:          2,
			RetireWidth:         2,
			Window:              28,
			SBDepth:             12,
			BranchPredictorBits: 7,
			IssueJitter:         18,
		},
		LineWords: 8,
		L1Lines:   512,
	}
	// Calibration (EXPERIMENTS.md TXT3): the paper could not distinguish
	// the dmb variants with microbenchmarks on the X-Gene 1; their issue
	// costs are therefore close, and the differences the macro
	// experiments expose come from the semantics (ish waits on the store
	// buffer, ishld on outstanding loads, ishst on neither).
	p.Lat.BarrierIssue[DMBIsh] = 10
	p.Lat.BarrierIssue[DMBIshLd] = 9
	p.Lat.BarrierIssue[DMBIshSt] = 8
	p.Lat.BarrierIssue[ISB] = 4 // plus ISBFlush when it retires
	return p
}

// POWER7 returns a profile modelled on the paper's 12-core 3.7 GHz POWER7
// with a non-multi-copy-atomic storage subsystem.
func POWER7() *Profile {
	p := &Profile{
		Name:    "power7",
		FreqGHz: 3.7,
		Flavor:  NonMCA,
		Lat: Latencies{
			ALU:         1,
			Mul:         4,
			L1Hit:       2,
			L2Hit:       12,
			Mem:         110,
			L1Fill:      2,
			StoreCommit: 3,
			StoreDrain:  12,
			Mispredict:  11,
			ISBFlush:    40,
			AcqIssue:    5,
			RelIssue:    7,
			PropMin:     6,
			PropMax:     64,
		},
		Pipe: Pipeline{
			FetchWidth:          4,
			IssueWidth:          2,
			RetireWidth:         2,
			Window:              32,
			SBDepth:             16,
			BranchPredictorBits: 7,
			// The POWER7 runs symmetric multithreading; the paper
			// attributes the instability of xalan on POWER to it
			// (§4.2.1).  A higher jitter models that interference.
			IssueJitter: 30,
		},
		LineWords: 16,
		L1Lines:   512,
	}
	// Calibration (EXPERIMENTS.md TXT3): basic microbenchmarking in the
	// paper puts lwsync at 6.1 ns and hwsync ("sync") at 18.9 ns at
	// 3.7 GHz, i.e. roughly 23 vs 70 cycles end to end.  The issue costs
	// below leave room for the drain/ack stalls that make up the rest.
	p.Lat.BarrierIssue[LwSync] = 23
	p.Lat.BarrierIssue[HwSync] = 70
	return p
}

// Profiles returns the two evaluation profiles keyed by the names the paper
// uses in its figures ("arm", "power").
func Profiles() map[string]*Profile {
	return map[string]*Profile{
		"arm":   ARMv8(),
		"power": POWER7(),
	}
}

// ByName returns a fresh evaluation profile by the name the service and
// the CLIs use for it: "armv8" or "power7".
func ByName(name string) (*Profile, error) {
	switch name {
	case "armv8":
		return ARMv8(), nil
	case "power7":
		return POWER7(), nil
	}
	return nil, fmt.Errorf("unknown arch %q (want \"armv8\" or \"power7\")", name)
}
