package arch

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op                  Op
		load, store, branch bool
	}{
		{Load, true, false, false},
		{LoadAcq, true, false, false},
		{LoadEx, true, false, false},
		{Store, false, true, false},
		{StoreRel, false, true, false},
		{StoreEx, false, true, false},
		{B, false, false, true},
		{Beq, false, false, true},
		{Bge, false, false, true},
		{Add, false, false, false},
		{Barrier, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsLoad() != c.load || c.op.IsStore() != c.store || c.op.IsBranch() != c.branch {
			t.Errorf("%v: predicates load=%v store=%v branch=%v", c.op, c.op.IsLoad(), c.op.IsStore(), c.op.IsBranch())
		}
		if c.op.IsMem() != (c.load || c.store) {
			t.Errorf("%v: IsMem inconsistent", c.op)
		}
	}
	if B.IsCondBranch() {
		t.Error("B is not conditional")
	}
	if !Bne.IsCondBranch() {
		t.Error("Bne is conditional")
	}
}

func TestBarrierOrderings(t *testing.T) {
	cases := []struct {
		k          BarrierKind
		ll, ss, sl bool
	}{
		{DMBIsh, true, true, true},
		{DMBIshLd, true, false, false},
		{DMBIshSt, false, true, false},
		{ISB, true, false, false},
		{LwSync, true, true, false},
		{HwSync, true, true, true},
	}
	for _, c := range cases {
		if c.k.OrdersLoadLoad() != c.ll || c.k.OrdersStoreStore() != c.ss || c.k.OrdersStoreLoad() != c.sl {
			t.Errorf("%v: orderings ll=%v ss=%v sl=%v", c.k,
				c.k.OrdersLoadLoad(), c.k.OrdersStoreStore(), c.k.OrdersStoreLoad())
		}
	}
}

func TestInstrReadsWrites(t *testing.T) {
	var buf [3]Reg
	in := Instr{Op: Store, Rd: 5, Rn: 6}
	reads := in.Reads(buf[:0])
	if len(reads) != 2 || reads[0] != 6 || reads[1] != 5 {
		t.Errorf("Store reads %v", reads)
	}
	if _, ok := in.Writes(); ok {
		t.Error("Store writes no register")
	}
	in = Instr{Op: StoreEx, Rd: 2, Rn: 3, Rm: 4}
	reads = in.Reads(buf[:0])
	if len(reads) != 2 || reads[0] != 3 || reads[1] != 4 {
		t.Errorf("StoreEx reads %v", reads)
	}
	if rd, ok := in.Writes(); !ok || rd != 2 {
		t.Error("StoreEx writes its status register")
	}
	if !(Instr{Op: SubsImm}).SetsFlags() || (Instr{Op: SubImm}).SetsFlags() {
		t.Error("flag-setting predicates wrong")
	}
	if !(Instr{Op: Blt}).ReadsFlags() || (Instr{Op: B}).ReadsFlags() {
		t.Error("flag-reading predicates wrong")
	}
}

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.MovImm(0, 1)
	b.Bne("top")
	b.B("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Target != 0 {
		t.Errorf("Bne target = %d, want 0", p.Code[1].Target)
	}
	if p.Code[2].Target != 4 {
		t.Errorf("B target = %d, want 4", p.Code[2].Target)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.B("nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("expected undefined-label error, got %v", err)
	}
	b = NewBuilder()
	b.Label("x")
	b.Label("x")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "redefined") {
		t.Errorf("expected redefinition error, got %v", err)
	}
	if b.Err() == nil {
		t.Error("Err should report the recorded failure")
	}
}

func TestBuilderAppendRelocates(t *testing.T) {
	inner := NewBuilder()
	inner.Label("l")
	inner.SubsImm(0, 0, 1)
	inner.Bne("l")
	ip := inner.MustBuild()

	outer := NewBuilder()
	outer.Nop()
	outer.Nop()
	outer.Append(ip)
	p := outer.MustBuild()
	if p.Code[3].Target != 2 {
		t.Errorf("appended branch target = %d, want 2", p.Code[3].Target)
	}
}

func TestBuilderSiteTagging(t *testing.T) {
	b := NewBuilder()
	old := b.SetSite(5)
	if old != PathNone {
		t.Errorf("initial site = %d", old)
	}
	b.Nop()
	b.SetSite(old)
	b.Nop()
	p := b.MustBuild()
	if p.Code[0].Site != 5 || p.Code[1].Site != PathNone {
		t.Errorf("site tags: %d %d", p.Code[0].Site, p.Code[1].Site)
	}
}

func TestProfileValidation(t *testing.T) {
	for name, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	bad := ARMv8()
	bad.LineWords = 3
	if bad.Validate() == nil {
		t.Error("non-power-of-two line size should fail validation")
	}
	bad = ARMv8()
	bad.FreqGHz = 0
	if bad.Validate() == nil {
		t.Error("zero frequency should fail validation")
	}
	bad = POWER7()
	bad.Lat.PropMax = bad.Lat.PropMin - 1
	if bad.Validate() == nil {
		t.Error("inverted propagation bounds should fail validation")
	}
}

// TestByName pins the one profile lookup the service and the CLIs share:
// each name resolves to a fresh copy of its profile, and anything else is
// refused with the "unknown arch" text callers' validation tests match.
func TestByName(t *testing.T) {
	for name, want := range map[string]*Profile{"armv8": ARMv8(), "power7": POWER7()} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%s: ByName differs from the profile constructor", name)
		}
		if q, _ := ByName(name); q == p {
			t.Errorf("%s: ByName returned a shared profile", name)
		}
	}
	if _, err := ByName("riscv"); err == nil || !strings.Contains(err.Error(), "unknown arch") {
		t.Errorf("ByName(riscv) error = %v, want unknown arch", err)
	}
}

func TestCycleNsRoundTrip(t *testing.T) {
	p := ARMv8()
	f := func(raw uint32) bool {
		cycles := int64(raw % 1_000_000)
		ns := p.CyclesToNs(cycles)
		back := p.NsToCycles(ns)
		diff := back - cycles
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if DMBIsh.String() != "dmb ish" || HwSync.String() != "hwsync" {
		t.Error("barrier names wrong")
	}
	if Load.String() != "ldr" || StoreEx.String() != "stxr" {
		t.Error("op names wrong")
	}
	in := Instr{Op: Load, Rd: 2, Rn: 1, Imm: 8}
	if !strings.Contains(in.String(), "ldr r2, [r1, #8]") {
		t.Errorf("instr string: %s", in.String())
	}
	if MCA.String() != "mca" || NonMCA.String() != "non-mca" {
		t.Error("flavor names wrong")
	}
}
