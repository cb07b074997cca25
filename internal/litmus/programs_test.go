package litmus

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/arch"
)

// programsGolden pins, per profile and catalogue test, a digest of every
// thread's assembled program (setup, alignment delay loop, body, halt) at
// stagger 0 and at stagger 5, field by field, so a change to how the
// catalogue builds its programs shows up as the tests whose instructions
// moved.  Values are the first 16 hex digits of the sha256.
var programsGolden = map[string]string{
	"armv8/MP":                  "03fced7228500b39",
	"armv8/MP+ishst+po":         "06b38cf46b538960",
	"armv8/MP+po+ishld":         "2e4a38790202b79c",
	"armv8/MP+ishst+ishld":      "878794f774dcf76d",
	"armv8/MP+ish+ish":          "a1733122d7a15792",
	"armv8/MP+ishst+addr":       "3ce6a7cd2e730aae",
	"armv8/MP+ishst+ctl":        "722e128e5dceae11",
	"armv8/MP+ishst+ctlisb":     "3a31924d4dcd6d7c",
	"armv8/MP+rel+acq":          "e8853bdad3779ebb",
	"armv8/SB":                  "675b6130e744b359",
	"armv8/SB+ish+ish":          "0d9ca7819a790dfd",
	"armv8/SB+rel+acq":          "8102579a3bc50c7d",
	"armv8/CoRR":                "2111bfdcfcf6af35",
	"armv8/CoWW":                "e3ed03222426d560",
	"armv8/LB":                  "0279e5791d2f08ea",
	"armv8/WRC+data+addr":       "9381c0dbd234efe8",
	"armv8/IRIW+addr+addr":      "cf650db39667794c",
	"armv8/IRIW+ishld+ishld":    "129e2a425e64bf8f",
	"armv8/R":                   "ecf486bb8b504961",
	"armv8/R+ish+ish":           "7edcea3d8c1e72c4",
	"armv8/S":                   "b2f288fb399fedfd",
	"armv8/S+ish+po":            "68f7d8a36bfa2713",
	"armv8/2+2W":                "8b8397fc1333b368",
	"armv8/2+2W+ishst+ishst":    "740165f19152b1ec",
	"power7/MP":                 "03fced7228500b39",
	"power7/MP+lwsync+po":       "fe791d71be782ac2",
	"power7/MP+po+lwsync":       "44dd04b3a853e35f",
	"power7/MP+lwsync+lwsync":   "f041c2ab6fd9ce01",
	"power7/MP+sync+sync":       "74bc5d8055be3f1b",
	"power7/MP+lwsync+addr":     "dccf5f19e70f7eeb",
	"power7/MP+lwsync+ctl":      "0bf47db27842a619",
	"power7/MP+lwsync+ctlisync": "a025430bcb309770",
	"power7/SB":                 "675b6130e744b359",
	"power7/SB+sync+sync":       "4c5ce4dfacf3acc5",
	"power7/SB+lwsync+lwsync":   "7b7bd7b45ceeab14",
	"power7/CoRR":               "2111bfdcfcf6af35",
	"power7/CoWW":               "e3ed03222426d560",
	"power7/LB":                 "0279e5791d2f08ea",
	"power7/WRC+data+addr":      "9381c0dbd234efe8",
	"power7/WRC+sync+addr":      "90507723e728821a",
	"power7/IRIW+addr+addr":     "cf650db39667794c",
	"power7/IRIW+sync+sync":     "d2508ba60d53ab24",
	"power7/IRIW+lwsync+lwsync": "b937d6bde5eea324",
	"power7/R":                  "ecf486bb8b504961",
	"power7/R+sync+sync":        "a54d1c77b9ad4652",
	"power7/S":                  "b2f288fb399fedfd",
	"power7/S+lwsync+po":        "fe30b9ca4d5a11ea",
	"power7/2+2W":               "8b8397fc1333b368",
}

// writeProgram writes every field of every instruction of p into h.
func writeProgram(h hash.Hash, p arch.Program) {
	for _, in := range p.Code {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d\n", in.Op, in.Rd, in.Rn, in.Rm, in.Imm, in.Target, in.Kind, in.Site)
	}
	h.Write([]byte{'\n'})
}

// TestCatalogueProgramDigests checks programsGolden: every catalogue test
// on each profile, every thread, at stagger 0 and at stagger 5, through
// the runner's one program construction.
func TestCatalogueProgramDigests(t *testing.T) {
	seen := 0
	for _, prof := range []*arch.Profile{arch.ARMv8(), arch.POWER7()} {
		r := &Runner{Prof: prof}
		for _, tst := range Suite(prof.Name) {
			sp, _ := r.spec(tst)
			h := sha256.New()
			b := arch.NewBuilder()
			for th := 0; th < sp.Threads; th++ {
				for _, stagger := range []int64{0, 5} {
					b.Reset()
					sp.Build(b, th, stagger)
					p, err := b.Build()
					if err != nil {
						t.Fatalf("%s/%s thread %d stagger %d: %v", prof.Name, tst.Name, th, stagger, err)
					}
					writeProgram(h, p)
				}
			}
			key := prof.Name + "/" + tst.Name
			got := fmt.Sprintf("%x", h.Sum(nil))[:16]
			if want := programsGolden[key]; got != want {
				t.Errorf("%q: %q, want %q", key, got, want)
			}
			seen++
		}
	}
	if seen != len(programsGolden) {
		t.Errorf("digested %d catalogue tests, golden has %d", seen, len(programsGolden))
	}
}
