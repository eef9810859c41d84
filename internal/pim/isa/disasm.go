package isa

import "fmt"

// Disassemble renders one decoded instruction in a readable assembly
// syntax. The mnemonics mirror the micro-operation names of Sections 4.1
// and 4.3.
func Disassemble(in Instr) string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpRead:
		return fmt.Sprintf("read    b%d r%d", in.Block, in.Row)
	case OpWrite:
		return fmt.Sprintf("write   b%d r%d", in.Block, in.Row)
	case OpMemcpy:
		return fmt.Sprintf("memcpy  b%d r%d -> b%d r%d", in.Block, in.Row, in.DstBlock, in.DstRow)
	case OpBroadcast:
		return fmt.Sprintf("bcast   r%d.w%d -> rows[%d+%d].w%d x%d",
			in.Row, in.SrcOff, in.RowStart, in.RowCount, in.DstOff, in.WordCount)
	case OpAdd, OpMul, OpSub:
		return fmt.Sprintf("%-7s rows[%d+%d]: w%d = w%d, w%d",
			in.Op, in.RowStart, in.RowCount, in.DstOff, in.SrcOff, in.Src2Off)
	case OpGroupBcast:
		return fmt.Sprintf("gbcast  rows[%d+%d]: w%d <- w%d (stride %d, group %d, idx %d)",
			in.RowStart, in.RowCount, in.DstOff, in.SrcOff, in.Stride, in.GroupSize, in.GroupIdx)
	case OpPattern:
		return fmt.Sprintf("pattern rows[%d+%d]: w%d <- storage[r%d+coord].w%d (stride %d, group %d)",
			in.RowStart, in.RowCount, in.DstOff, in.Row, in.SrcOff, in.Stride, in.GroupSize)
	case OpLUT:
		return fmt.Sprintf("lut     r%d.w%d -> [lutblk %d] -> r%d.w%d",
			in.Row, in.SrcOff, in.LUTBlock, in.Row, in.DstOff)
	}
	return fmt.Sprintf("op(%d)?", uint8(in.Op))
}

// Assemble encodes a whole program into its 64-bit word stream — the form
// the host CPU actually sends to the chip's central controller.
func Assemble(prog []Instr) ([]uint64, error) {
	out := make([]uint64, len(prog))
	for i, in := range prog {
		w, err := Encode(in)
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		out[i] = w
	}
	return out, nil
}

// OpMix is an opcode histogram of a program — the measured counterpart of
// the paper's "assuming a workload containing 50% addition and 50%
// multiplication operations" throughput model.
type OpMix struct {
	Counts map[Opcode]int
	Total  int
}

// Mix computes the opcode histogram.
func Mix(prog []Instr) OpMix {
	m := OpMix{Counts: make(map[Opcode]int)}
	for _, in := range prog {
		m.Counts[in.Op]++
		m.Total++
	}
	return m
}

// Add merges another program's counts.
func (m *OpMix) Add(o OpMix) {
	for op, n := range o.Counts {
		m.Counts[op] += n
	}
	m.Total += o.Total
}

// ArithShare returns the fraction of arithmetic (add/sub/mul) instructions
// and, within them, the multiply share.
func (m OpMix) ArithShare() (arithFrac, mulFrac float64) {
	adds := m.Counts[OpAdd] + m.Counts[OpSub]
	muls := m.Counts[OpMul]
	if m.Total > 0 {
		arithFrac = float64(adds+muls) / float64(m.Total)
	}
	if adds+muls > 0 {
		mulFrac = float64(muls) / float64(adds+muls)
	}
	return
}
