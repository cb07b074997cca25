package arch

import "fmt"

// Builder assembles a Program.  It resolves symbolic labels to instruction
// indices and tags every emitted instruction with the current code-path
// site, so that higher layers (platform code generators, the cost-function
// injector) can attribute instructions to the paper's "code paths".
//
// The zero value is not usable; construct with NewBuilder.
type Builder struct {
	code   []Instr
	labels map[string]int
	fixups []fixup
	site   PathID
	err    error
}

type fixup struct {
	index int
	label string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// SetSite sets the code-path site recorded on subsequently emitted
// instructions.  It returns the previous site so callers can nest scopes.
func (b *Builder) SetSite(p PathID) PathID {
	old := b.site
	b.site = p
	return old
}

// Site returns the current code-path site.
func (b *Builder) Site() PathID { return b.site }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

func (b *Builder) emit(in Instr) *Builder {
	in.Site = b.site
	b.code = append(b.code, in)
	return b
}

// Label defines label name at the current position.  Redefinition is an
// error reported by Build.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("label %q redefined", name)
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: Nop}) }

// Nops emits n no-ops.
func (b *Builder) Nops(n int) *Builder {
	for i := 0; i < n; i++ {
		b.Nop()
	}
	return b
}

// MovImm emits rd = imm.
func (b *Builder) MovImm(rd Reg, imm int64) *Builder {
	return b.emit(Instr{Op: MovImm, Rd: rd, Imm: imm})
}

// Mov emits rd = rn.
func (b *Builder) Mov(rd, rn Reg) *Builder {
	return b.emit(Instr{Op: Mov, Rd: rd, Rn: rn})
}

// Add emits rd = rn + rm.
func (b *Builder) Add(rd, rn, rm Reg) *Builder {
	return b.emit(Instr{Op: Add, Rd: rd, Rn: rn, Rm: rm})
}

// Sub emits rd = rn - rm.
func (b *Builder) Sub(rd, rn, rm Reg) *Builder {
	return b.emit(Instr{Op: Sub, Rd: rd, Rn: rn, Rm: rm})
}

// And emits rd = rn & rm.
func (b *Builder) And(rd, rn, rm Reg) *Builder {
	return b.emit(Instr{Op: And, Rd: rd, Rn: rn, Rm: rm})
}

// Orr emits rd = rn | rm.
func (b *Builder) Orr(rd, rn, rm Reg) *Builder {
	return b.emit(Instr{Op: Orr, Rd: rd, Rn: rn, Rm: rm})
}

// Eor emits rd = rn ^ rm.
func (b *Builder) Eor(rd, rn, rm Reg) *Builder {
	return b.emit(Instr{Op: Eor, Rd: rd, Rn: rn, Rm: rm})
}

// Mul emits rd = rn * rm.
func (b *Builder) Mul(rd, rn, rm Reg) *Builder {
	return b.emit(Instr{Op: Mul, Rd: rd, Rn: rn, Rm: rm})
}

// AddImm emits rd = rn + imm.
func (b *Builder) AddImm(rd, rn Reg, imm int64) *Builder {
	return b.emit(Instr{Op: AddImm, Rd: rd, Rn: rn, Imm: imm})
}

// SubImm emits rd = rn - imm.
func (b *Builder) SubImm(rd, rn Reg, imm int64) *Builder {
	return b.emit(Instr{Op: SubImm, Rd: rd, Rn: rn, Imm: imm})
}

// Lsl emits rd = rn << imm.
func (b *Builder) Lsl(rd, rn Reg, imm int64) *Builder {
	return b.emit(Instr{Op: Lsl, Rd: rd, Rn: rn, Imm: imm})
}

// Lsr emits rd = rn >> imm (logical).
func (b *Builder) Lsr(rd, rn Reg, imm int64) *Builder {
	return b.emit(Instr{Op: Lsr, Rd: rd, Rn: rn, Imm: imm})
}

// SubsImm emits rd = rn - imm, setting the condition flags.
func (b *Builder) SubsImm(rd, rn Reg, imm int64) *Builder {
	return b.emit(Instr{Op: SubsImm, Rd: rd, Rn: rn, Imm: imm})
}

// CmpImm emits a flag-setting compare of rn against imm.
func (b *Builder) CmpImm(rn Reg, imm int64) *Builder {
	return b.emit(Instr{Op: CmpImm, Rn: rn, Imm: imm})
}

// Cmp emits a flag-setting compare of rn against rm.
func (b *Builder) Cmp(rn, rm Reg) *Builder {
	return b.emit(Instr{Op: Cmp, Rn: rn, Rm: rm})
}

// Load emits rd = mem[rn + off].
func (b *Builder) Load(rd, rn Reg, off int64) *Builder {
	return b.emit(Instr{Op: Load, Rd: rd, Rn: rn, Imm: off})
}

// Store emits mem[rn + off] = rd.
func (b *Builder) Store(rd, rn Reg, off int64) *Builder {
	return b.emit(Instr{Op: Store, Rd: rd, Rn: rn, Imm: off})
}

// LoadAcq emits a load-acquire of mem[rn + off] into rd.
func (b *Builder) LoadAcq(rd, rn Reg, off int64) *Builder {
	return b.emit(Instr{Op: LoadAcq, Rd: rd, Rn: rn, Imm: off})
}

// StoreRel emits a store-release of rd to mem[rn + off].
func (b *Builder) StoreRel(rd, rn Reg, off int64) *Builder {
	return b.emit(Instr{Op: StoreRel, Rd: rd, Rn: rn, Imm: off})
}

// LoadEx emits a load-exclusive of mem[rn + off] into rd.
func (b *Builder) LoadEx(rd, rn Reg, off int64) *Builder {
	return b.emit(Instr{Op: LoadEx, Rd: rd, Rn: rn, Imm: off})
}

// StoreEx emits a store-exclusive of rm to mem[rn + off]; rd receives 0 on
// success, 1 on failure.
func (b *Builder) StoreEx(rd, rm, rn Reg, off int64) *Builder {
	return b.emit(Instr{Op: StoreEx, Rd: rd, Rm: rm, Rn: rn, Imm: off})
}

func (b *Builder) branch(op Op, label string) *Builder {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label})
	return b.emit(Instr{Op: op})
}

// B emits an unconditional branch to label.
func (b *Builder) B(label string) *Builder { return b.branch(B, label) }

// Beq emits a branch-if-equal to label.
func (b *Builder) Beq(label string) *Builder { return b.branch(Beq, label) }

// Bne emits a branch-if-not-equal to label.
func (b *Builder) Bne(label string) *Builder { return b.branch(Bne, label) }

// Blt emits a branch-if-less-than to label.
func (b *Builder) Blt(label string) *Builder { return b.branch(Blt, label) }

// Bge emits a branch-if-greater-or-equal to label.
func (b *Builder) Bge(label string) *Builder { return b.branch(Bge, label) }

// Fence emits a memory barrier of the given kind.
func (b *Builder) Fence(kind BarrierKind) *Builder {
	if kind == BarrierNone {
		return b.Nop()
	}
	return b.emit(Instr{Op: Barrier, Kind: kind})
}

// Work emits a marker retiring units of application work.
func (b *Builder) Work(units int64) *Builder {
	return b.emit(Instr{Op: Work, Imm: units})
}

// Halt emits the thread-terminating instruction.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: Halt}) }

// Append copies prog into the instruction stream, preserving the copied
// instructions' own code-path sites and relocating their branch targets.
func (b *Builder) Append(prog Program) *Builder {
	base := int32(len(b.code))
	for _, in := range prog.Code {
		if in.Op.IsBranch() {
			in.Target += base
		}
		b.code = append(b.code, in)
	}
	return b
}

// Reset empties the builder for the next program, keeping its buffers.
// Programs already built do not share them.
func (b *Builder) Reset() {
	b.code = b.code[:0]
	clear(b.labels)
	b.fixups = b.fixups[:0]
	b.site = 0
	b.err = nil
}

// Err returns the first error recorded while building, if any.
func (b *Builder) Err() error { return b.err }

// Build resolves labels and returns the assembled Program.
func (b *Builder) Build() (Program, error) {
	if b.err != nil {
		return Program{}, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return Program{}, fmt.Errorf("undefined label %q", f.label)
		}
		b.code[f.index].Target = int32(target)
	}
	code := make([]Instr, len(b.code))
	copy(code, b.code)
	return Program{Code: code}, nil
}

// MustBuild is Build, panicking on error.  It is intended for tests and
// examples over statically known-correct programs; production call paths
// use Build and propagate the error (a panic here would otherwise ride a
// goroutine stack into the engine's recovery machinery instead of a
// plain error return).
func (b *Builder) MustBuild() Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
