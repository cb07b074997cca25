package jvm

// This file makes the JVM fencing-strategy space an enumerable,
// declaratively-encoded value set instead of two named constructors.  The
// optimizer enumerates its candidates from here.  Its cells carry only a
// strategy's name, which whichever worker executes a cell resolves against
// its own enumeration of the space.  A strategy's Spec is its declarative
// encoding in the optimizer's report.

// Lowering selector values for Spec.Loads / Spec.Stores.
const (
	// LowerBarriers selects the JDK8-style dmb-bracketed lowering.
	LowerBarriers = "barriers"
	// LowerAcqRel selects the JDK9-style ldar/stlr lowering.
	LowerAcqRel = "acqrel"
)

// Spec is the declarative encoding of a Strategy.
type Spec struct {
	// Loads and Stores select the volatile-access lowering family
	// independently: "barriers" or "acqrel".
	Loads  string `json:"loads"`
	Stores string `json:"stores"`
	// DropStoreLoad drops the StoreLoad elemental from the trailing
	// barrier of barrier-mode volatile stores (unsound with acqrel
	// loads; the gate's job is to prove that).
	DropStoreLoad bool `json:"drop_storeload,omitempty"`
	// HeavyStoreStore lowers StoreStore to the full barrier (TXT2).
	HeavyStoreStore bool `json:"heavy_storestore,omitempty"`
	// LockPatch applies the OpenJDK 8135187 DMB-elimination patch.
	LockPatch bool `json:"lock_patch,omitempty"`
}

// Spec returns the declarative encoding of the strategy.
func (s Strategy) Spec() Spec {
	sp := Spec{
		Loads:           LowerBarriers,
		Stores:          LowerBarriers,
		DropStoreLoad:   s.DropStoreLoad,
		HeavyStoreStore: s.HeavyStoreStore,
		LockPatch:       s.LockPatch,
	}
	if s.acqRelLoads() {
		sp.Loads = LowerAcqRel
	}
	if s.acqRelStores() {
		sp.Stores = LowerAcqRel
	}
	return sp
}

// Enumerate returns the strategy space the optimizer searches, in a stable
// order: the two named JDK strategies first (verbatim), then the hybrids,
// then the deliberately weakened variant whose trailing StoreLoad is
// dropped — sound-looking but rejected by the litmus gate.
func Enumerate() []Strategy {
	return []Strategy{
		JDK8(),
		JDK9(),
		{Name: "hybrid-ldar+dmb", AcqRelLoad: true},
		{Name: "hybrid-dmb+stlr", AcqRelStore: true},
		{Name: "jdk8-barriers+heavyss", HeavyStoreStore: true},
		{Name: "hybrid-ldar+dmb-nosl", AcqRelLoad: true, DropStoreLoad: true},
	}
}
