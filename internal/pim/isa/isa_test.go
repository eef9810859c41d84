package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpcodeStrings(t *testing.T) {
	cases := map[Opcode]string{
		OpNop: "nop", OpRead: "read", OpWrite: "write", OpMemcpy: "memcpy",
		OpBroadcast: "broadcast", OpAdd: "add", OpMul: "mul", OpLUT: "lut",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q want %q", op, op.String(), want)
		}
	}
}

func randInstr(r *rand.Rand) Instr {
	ops := []Opcode{OpNop, OpRead, OpWrite, OpMemcpy, OpBroadcast, OpAdd, OpMul, OpSub, OpGroupBcast, OpPattern, OpLUT}
	in := Instr{Op: ops[r.Intn(len(ops))]}
	switch in.Op {
	case OpGroupBcast, OpPattern:
		in.RowStart = r.Intn(1 << RowBits)
		in.RowCount = r.Intn(1 << RowCountBits)
		in.SrcOff = r.Intn(1 << WordOffBits)
		in.DstOff = r.Intn(1 << WordOffBits)
		in.Stride = r.Intn(1 << RowBits)
		in.GroupSize = r.Intn(1 << 5)
		if in.Op == OpGroupBcast {
			in.GroupIdx = r.Intn(1 << 5)
		} else {
			in.Row = r.Intn(1 << RowBits)
		}
	case OpRead, OpWrite:
		in.Block = r.Intn(1 << BlockIDBits)
		in.Row = r.Intn(1 << RowBits)
	case OpMemcpy:
		in.Block = r.Intn(1 << BlockIDBits)
		in.Row = r.Intn(1 << RowBits)
		in.DstBlock = r.Intn(1 << BlockIDBits)
		in.DstRow = r.Intn(1 << RowBits)
	case OpBroadcast:
		in.Row = r.Intn(1 << RowBits)
		in.RowStart = r.Intn(1 << RowBits)
		in.RowCount = r.Intn(1 << RowCountBits)
		in.SrcOff = r.Intn(1 << WordOffBits)
		in.DstOff = r.Intn(1 << WordOffBits)
		in.WordCount = r.Intn(1 << (WordOffBits + 1))
	case OpAdd, OpMul, OpSub:
		in.RowStart = r.Intn(1 << RowBits)
		in.RowCount = r.Intn(1 << RowCountBits)
		in.DstOff = r.Intn(1 << WordOffBits)
		in.SrcOff = r.Intn(1 << WordOffBits)
		in.Src2Off = r.Intn(1 << WordOffBits)
	case OpLUT:
		in.Row = r.Intn(1 << 26)
		in.SrcOff = r.Intn(1 << WordOffBits)
		in.LUTBlock = r.Intn(1 << 21)
		in.DstOff = r.Intn(1 << WordOffBits)
	}
	return in
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		in := randInstr(r)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %#x: %v", w, err)
		}
		if got != in {
			t.Fatalf("round trip failed:\n in: %+v\nout: %+v\nword %#x", in, got, w)
		}
	}
}

func TestOpcodeInBits57To63(t *testing.T) {
	for _, op := range []Opcode{OpRead, OpMemcpy, OpLUT} {
		w, err := Encode(Instr{Op: op})
		if err != nil {
			t.Fatal(err)
		}
		if got := Opcode(w >> OpcodeShift); got != op {
			t.Errorf("opcode field of %v: got %v", op, got)
		}
	}
}

func TestLUTEncodingMatchesFigure4(t *testing.T) {
	// Figure 4's layout: [63:57] opcode, [56:31] Row ID, [30:26] Offset_S,
	// [25:5] LUT Block ID, [4:0] Offset_D.
	in := Instr{Op: OpLUT, Row: 0x2ABCDEF, SrcOff: 0x15, LUTBlock: 0x10FFFF, DstOff: 0x0A}
	in.Row &= (1 << 26) - 1
	w, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(w >> 31 & ((1 << 26) - 1)); got != in.Row {
		t.Errorf("Row ID field: %#x want %#x", got, in.Row)
	}
	if got := int(w >> 26 & 0x1F); got != in.SrcOff {
		t.Errorf("Offset_S field: %#x want %#x", got, in.SrcOff)
	}
	if got := int(w >> 5 & ((1 << 21) - 1)); got != in.LUTBlock {
		t.Errorf("LUT Block ID field: %#x want %#x", got, in.LUTBlock)
	}
	if got := int(w & 0x1F); got != in.DstOff {
		t.Errorf("Offset_D field: %#x want %#x", got, in.DstOff)
	}
}

func TestEncodeRejectsOutOfRangeFields(t *testing.T) {
	bad := []Instr{
		{Op: OpRead, Block: 1 << BlockIDBits},
		{Op: OpRead, Row: 1024},
		{Op: OpMemcpy, DstRow: -1},
		{Op: OpAdd, RowCount: 1 << RowCountBits},
		{Op: OpLUT, LUTBlock: 1 << 21},
		{Op: OpBroadcast, WordCount: 1 << (WordOffBits + 1)},
		{Op: numOpcodes},
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) should have failed", in)
		}
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	if _, err := Decode(uint64(numOpcodes) << OpcodeShift); err == nil {
		t.Error("Decode of invalid opcode should fail")
	}
}

// Property: every encodable instruction decodes to itself.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstr(r)
		w, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(w)
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
