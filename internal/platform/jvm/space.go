package jvm

import "fmt"

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

// Spec is the round-trippable encoding of a Strategy: FromSpec(s.Spec())
// reproduces s exactly (including its canonical Name) for every strategy
// in the enumerated space.
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

// FromSpec decodes a Spec into a Strategy with its canonical name.  The two
// pure corners decode to the named JDK strategies verbatim; everything else
// gets a generated hybrid name.
func FromSpec(sp Spec) (Strategy, error) {
	for _, v := range []string{sp.Loads, sp.Stores} {
		if v != LowerBarriers && v != LowerAcqRel {
			return Strategy{}, fmt.Errorf("jvm: unknown lowering %q (want %q or %q)", v, LowerBarriers, LowerAcqRel)
		}
	}
	if sp.DropStoreLoad && sp.Stores != LowerBarriers {
		return Strategy{}, fmt.Errorf("jvm: drop_storeload applies only to barrier-mode stores")
	}
	st := Strategy{
		HeavyStoreStore: sp.HeavyStoreStore,
		LockPatch:       sp.LockPatch,
		DropStoreLoad:   sp.DropStoreLoad,
	}
	switch {
	case sp.Loads == LowerAcqRel && sp.Stores == LowerAcqRel:
		st.UseAcqRel = true
	case sp.Loads == LowerAcqRel:
		st.AcqRelLoad = true
	case sp.Stores == LowerAcqRel:
		st.AcqRelStore = true
	}
	st.Name = specName(sp)
	return st, nil
}

// specName derives the canonical strategy name of a spec.
func specName(sp Spec) string {
	base := ""
	switch {
	case sp.Loads == LowerBarriers && sp.Stores == LowerBarriers:
		base = "jdk8-barriers"
	case sp.Loads == LowerAcqRel && sp.Stores == LowerAcqRel:
		base = "jdk9-acqrel"
	case sp.Loads == LowerAcqRel:
		base = "hybrid-ldar+dmb"
	default:
		base = "hybrid-dmb+stlr"
	}
	if sp.DropStoreLoad {
		base += "-nosl"
	}
	if sp.HeavyStoreStore {
		base += "+heavyss"
	}
	if sp.LockPatch {
		base += "+lockpatch"
	}
	return base
}

// Enumerate returns the strategy space the optimizer searches, in a stable
// order: the two named JDK strategies first (verbatim), then the generated
// hybrids, then the deliberately weakened variant whose trailing StoreLoad
// is dropped — sound-looking but rejected by the litmus gate.
func Enumerate() []Strategy {
	specs := []Spec{
		{Loads: LowerBarriers, Stores: LowerBarriers}, // jdk8-barriers
		{Loads: LowerAcqRel, Stores: LowerAcqRel},     // jdk9-acqrel
		{Loads: LowerAcqRel, Stores: LowerBarriers},   // hybrid-ldar+dmb
		{Loads: LowerBarriers, Stores: LowerAcqRel},   // hybrid-dmb+stlr
		{Loads: LowerBarriers, Stores: LowerBarriers, HeavyStoreStore: true},
		{Loads: LowerAcqRel, Stores: LowerBarriers, DropStoreLoad: true}, // hybrid-ldar+dmb-nosl (unsound)
	}
	out := make([]Strategy, 0, len(specs))
	for _, sp := range specs {
		st, err := FromSpec(sp)
		if err != nil {
			panic(err) // static space; unreachable
		}
		out = append(out, st)
	}
	// The named corners must appear verbatim.
	out[0] = JDK8()
	out[1] = JDK9()
	return out
}
