package c11

// Declarative strategy-space encoding for the C11 platform: the per-arch
// mapping choice (dmb sequences vs ldar/stlr on the MCA profile) as an
// enumerable value.

// Spec is the declarative encoding of a Strategy.
type Spec struct {
	// Lowering is "barriers" or "acq-rel".
	Lowering string `json:"lowering"`
}

// Spec returns the declarative encoding of the strategy.
func (s Strategy) Spec() Spec {
	if s.UseAcqRel {
		return Spec{Lowering: "acq-rel"}
	}
	return Spec{Lowering: "barriers"}
}

// Enumerate returns the C11 strategy space: the two per-arch mapping
// families, barrier-based first.
func Enumerate() []Strategy {
	return []Strategy{Barriers(), AcqRelInstrs()}
}
