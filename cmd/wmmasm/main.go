// Command wmmasm assembles and runs textual programs on the simulated
// weak-memory machines — a scratchpad for exploring reorderings by hand.
//
// Each input file provides the program for one core; with a single file
// and -cores N, all cores run the same program.  After the run, registers
// r0..r8 of each core and the first -dump words of memory are printed.
//
// Usage:
//
//	wmmasm [-arch armv8|power7] [-cores N] [-cycles N] [-seed N] [-dump N] prog.s [prog2.s ...]
//
// Example (message passing):
//
//	cat > writer.s <<'EOF'
//	movimm r0, #1
//	str    r0, [r1, #0]    ; data
//	dmb    ishst
//	str    r0, [r1, #64]   ; flag
//	halt
//	EOF
//	cat > reader.s <<'EOF'
//	ldr r2, [r1, #64]
//	ldr r3, [r1, #0]
//	halt
//	EOF
//	wmmasm -arch armv8 writer.s reader.s
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/wmm"
)

func main() {
	archFlag := flag.String("arch", "armv8", "machine: armv8 or power7")
	cores := flag.Int("cores", 0, "core count (default: one per input file)")
	cycles := flag.Int64("cycles", 10_000_000, "cycle budget")
	seed := flag.Int64("seed", 1, "random seed")
	dump := flag.Int64("dump", 16, "memory words to dump")
	mem := flag.Int("mem", 1<<12, "memory words")
	trace := flag.Bool("trace", false, "print the retirement trace")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: wmmasm [flags] prog.s [prog2.s ...]")
		os.Exit(2)
	}

	prof, err := wmm.ProfileByName(*archFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wmmasm: unknown arch %q\n", *archFlag)
		os.Exit(2)
	}

	progs := make([]wmm.Program, 0, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wmmasm:", err)
			os.Exit(1)
		}
		p, err := wmm.ParseAsm(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "wmmasm: %s: %v\n", f, err)
			os.Exit(1)
		}
		progs = append(progs, p)
	}

	n := *cores
	if n == 0 {
		n = len(progs)
	}
	m, err := wmm.NewMachine(prof, wmm.MachineConfig{Cores: n, MemWords: *mem, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmmasm:", err)
		os.Exit(1)
	}
	if *trace {
		m.WriteTraceTo(os.Stdout)
	}
	for c := 0; c < n; c++ {
		p := progs[c%len(progs)]
		m.SetReg(c, 1, 0) // convention: r1 = memory base
		if err := m.LoadProgram(c, p); err != nil {
			fmt.Fprintln(os.Stderr, "wmmasm:", err)
			os.Exit(1)
		}
	}
	res, err := m.Run(*cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmmasm:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d cycles (%.1f ns), halted=%v\n",
		prof.Name, res.Cycles, prof.CyclesToNs(res.Cycles), res.AllHalted)
	for c := 0; c < n; c++ {
		fmt.Printf("core %d: work=%d regs:", c, res.Cores[c].Work)
		for r := wmm.Reg(0); r <= 8; r++ {
			fmt.Printf(" r%d=%d", r, m.Reg(c, r))
		}
		fmt.Println()
	}
	fmt.Print("mem (word addresses):")
	for a := int64(0); a < *dump; a++ {
		fmt.Printf(" [%d]=%d", a, m.ReadMem(a))
	}
	fmt.Println()
}
