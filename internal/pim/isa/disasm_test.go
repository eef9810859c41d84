package isa

import (
	"math/rand"
	"testing"
)

func TestDisassembleForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpRead, Block: 3, Row: 7}, "read    b3 r7"},
		{Instr{Op: OpMemcpy, Block: 1, Row: 2, DstBlock: 5, DstRow: 9}, "memcpy  b1 r2 -> b5 r9"},
		{Instr{Op: OpAdd, RowStart: 0, RowCount: 512, DstOff: 2, SrcOff: 0, Src2Off: 1},
			"add     rows[0+512]: w2 = w0, w1"},
		{Instr{Op: OpLUT, Row: 4, SrcOff: 1, LUTBlock: 10, DstOff: 9},
			"lut     r4.w1 -> [lutblk 10] -> r4.w9"},
	}
	for _, c := range cases {
		if got := Disassemble(c.in); got != c.want {
			t.Errorf("Disassemble(%v) = %q want %q", c.in.Op, got, c.want)
		}
	}
}

// Assemble/Decode round trip: rendering a decoded assembled word equals
// rendering the original instruction.
func TestAssembleDisassembleConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var prog []Instr
	for i := 0; i < 200; i++ {
		prog = append(prog, randInstr(r))
	}
	words, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != len(prog) {
		t.Fatal("length mismatch")
	}
	for i, w := range words {
		in, err := Decode(w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Disassemble(in), Disassemble(prog[i]); got != want {
			t.Errorf("instr %d: %q vs %q", i, got, want)
		}
	}
}

func TestAssembleRejectsBadInstr(t *testing.T) {
	if _, err := Assemble([]Instr{{Op: OpRead, Row: 5000}}); err == nil {
		t.Error("Assemble should propagate encoding errors")
	}
}

func TestOpMix(t *testing.T) {
	prog := []Instr{
		{Op: OpAdd}, {Op: OpAdd}, {Op: OpSub}, {Op: OpMul}, {Op: OpMul}, {Op: OpMul},
		{Op: OpGroupBcast}, {Op: OpBroadcast},
	}
	m := Mix(prog)
	if m.Total != 8 || m.Counts[OpMul] != 3 {
		t.Errorf("mix %+v", m)
	}
	arith, mul := m.ArithShare()
	if arith != 6.0/8 {
		t.Errorf("arith share %g", arith)
	}
	if mul != 0.5 {
		t.Errorf("mul share %g", mul)
	}
	var total OpMix
	total.Counts = map[Opcode]int{}
	total.Add(m)
	total.Add(m)
	if total.Total != 16 || total.Counts[OpSub] != 2 {
		t.Error("OpMix.Add wrong")
	}
}

func TestOpMixEmpty(t *testing.T) {
	m := Mix(nil)
	a, mu := m.ArithShare()
	if a != 0 || mu != 0 {
		t.Error("empty mix shares should be zero")
	}
}
