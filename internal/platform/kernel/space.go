package kernel

import "fmt"

// Declarative strategy-space encoding: the Figure 10 implementations as
// enumerable, round-trippable values.  The optimizer enumerates its
// candidates from here; its cells carry only a strategy's name, which the
// executing worker resolves against its own enumeration of the space.  A
// strategy's Spec is its declarative encoding in the optimizer's report.

// Spec is the round-trippable encoding of a Strategy.  The RBD field uses
// the Figure 10 x-axis names ("base case", "ctrl", "ctrl+isb",
// "dmb ishld", "dmb ish").
type Spec struct {
	RBD  string `json:"rbd"`
	LASR bool   `json:"lasr,omitempty"`
}

// rbdImpls lists the implementations in Figure 10 order.
var rbdImpls = []RBDImpl{RBDNone, RBDCtrl, RBDCtrlISB, RBDIshLd, RBDIsh}

// ParseRBD decodes a Figure 10 implementation name.
func ParseRBD(name string) (RBDImpl, error) {
	for _, r := range rbdImpls {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("kernel: unknown read_barrier_depends implementation %q", name)
}

// Spec returns the declarative encoding of the strategy.
func (s Strategy) Spec() Spec {
	return Spec{RBD: s.RBD.String(), LASR: s.LASR}
}

// FromSpec decodes a Spec into a Strategy with its canonical Figure 10
// name ("la/sr" for the LASR-supplemented dmb ishld variant).
func FromSpec(sp Spec) (Strategy, error) {
	rbd, err := ParseRBD(sp.RBD)
	if err != nil {
		return Strategy{}, err
	}
	st := Strategy{RBD: rbd, LASR: sp.LASR}
	switch {
	case sp.LASR && rbd == RBDIshLd:
		st.Name = "la/sr"
	case sp.LASR:
		st.Name = rbd.String() + "+la/sr"
	default:
		st.Name = rbd.String()
	}
	return st, nil
}

// Enumerate returns the kernel strategy space in Figure 10 order; it is
// exactly the Strategies() catalogue.
func Enumerate() []Strategy { return Strategies() }
