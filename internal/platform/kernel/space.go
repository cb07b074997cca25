package kernel

// Declarative strategy-space encoding: the Figure 10 implementations as
// enumerable values.  The optimizer enumerates its candidates from here;
// its cells carry only a strategy's name, which the executing worker
// resolves against its own enumeration of the space.  A strategy's Spec
// is its declarative encoding in the optimizer's report.

// Spec is the declarative encoding of a Strategy.  The RBD field uses
// the Figure 10 x-axis names ("base case", "ctrl", "ctrl+isb",
// "dmb ishld", "dmb ish").
type Spec struct {
	RBD  string `json:"rbd"`
	LASR bool   `json:"lasr,omitempty"`
}

// Spec returns the declarative encoding of the strategy.
func (s Strategy) Spec() Spec {
	return Spec{RBD: s.RBD.String(), LASR: s.LASR}
}

// Enumerate returns the kernel strategy space in Figure 10 order; it is
// exactly the Strategies() catalogue.
func Enumerate() []Strategy { return Strategies() }
