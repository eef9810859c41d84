// Package isa defines the instruction set of the ISA-based Wave-PIM system
// (Section 4.1): memory instructions (read, write, inter-block memcpy,
// broadcast), row-parallel arithmetic instructions, and the look-up-table
// instruction of Figure 4. Instructions are 64-bit words with the opcode in
// bits 57-63, following the paper's format. The host CPU streams encoded
// instructions; the chip's central controller decodes them and fans
// micro-sequences out to the per-block decoders.
package isa

import (
	"fmt"
)

// Opcode occupies bits 57-63 of every instruction ("Bits 57-63 define the
// opcode, which differentiates look-up table instructions from other PIM
// instructions").
type Opcode uint8

const (
	OpNop Opcode = iota
	// OpRead loads a block row from the memristor cells into the block's
	// row buffer (the paper's I0 in the Figure 3 walkthrough).
	OpRead
	// OpWrite stores the row buffer into a block row (I4).
	OpWrite
	// OpMemcpy moves a row-buffer payload from one block to another through
	// the interconnect (I1..I3).
	OpMemcpy
	// OpBroadcast replicates a word range of a source row across a row
	// range within the same block — the "constants need to be copied to the
	// scratchpad and broadcast to the first 512 rows" step of Section 5.1.
	OpBroadcast
	// OpAdd computes, for every row in a range, dst = src1 + src2 (FP32,
	// bit-serial NOR sequence, row-parallel).
	OpAdd
	// OpMul computes dst = src1 * src2 likewise.
	OpMul
	// OpSub computes dst = src1 - src2 (bit-serial subtraction has the
	// same NOR-step cost as addition).
	OpSub
	// OpGroupBcast is a strided within-group broadcast using the block's
	// column buffers: rows are partitioned into groups of GroupSize members
	// spaced Stride apart, and every member's DstOff word is overwritten by
	// the GroupIdx-th member's SrcOff word. This is the data-rearrangement
	// micro-operation behind the tensor-product derivative dot products of
	// Figure 5 ("a series of addition and multiplication instructions after
	// appropriate constants are distributed to each row").
	OpGroupBcast
	// OpPattern distributes a per-axis constant pattern from the block's
	// storage rows into a compute column: every compute row r receives
	// storageRow[Row + ((r-RowStart)/Stride) mod GroupSize][SrcOff]. One
	// OpPattern per dshape column realizes Figure 5's "appropriate
	// constants are distributed to each row" step; with a mask-indicator
	// storage row it also materializes the face masks used by Flux. Like
	// OpGroupBcast it is a column-buffer permutation write.
	OpPattern
	// OpLUT is the look-up table instruction of Figure 4 / Algorithm 1.
	OpLUT
	numOpcodes
)

// NumOpcodes is the number of defined opcodes — the size callers need for
// per-opcode counter arrays (e.g. the simulator's instruction-class
// metrics).
const NumOpcodes = int(numOpcodes)

func (o Opcode) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpMemcpy:
		return "memcpy"
	case OpBroadcast:
		return "broadcast"
	case OpAdd:
		return "add"
	case OpMul:
		return "mul"
	case OpSub:
		return "sub"
	case OpGroupBcast:
		return "groupbcast"
	case OpPattern:
		return "pattern"
	case OpLUT:
		return "lut"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Field widths shared by the encodings. A 1K x 1K block has 1024 rows
// (10-bit row addresses) and 32 32-bit words per row (5-bit word offsets,
// as in Figure 4: "the data precision is 32-bit, so only 5 bits are needed
// to define the offset"). Block IDs get 18 bits (256K blocks = 32 GB),
// enough for the largest 16 GB configuration.
const (
	RowBits      = 10
	RowCountBits = 11 // counts up to 1024 need 11 bits
	WordOffBits  = 5
	BlockIDBits  = 18
	OpcodeShift  = 57
)

// Instr is a decoded instruction. Field meaning depends on Op:
//
//	Read/Write:  Block, Row
//	Memcpy:      Block (source), Row (source), DstBlock, DstRow
//	Broadcast:   Row (source row), RowStart, RowCount, SrcOff, DstOff, WordCount
//	Add/Mul/Sub: RowStart, RowCount, DstOff, SrcOff (operand 1), Src2Off
//	GroupBcast:  RowStart, RowCount, SrcOff, DstOff, Stride, GroupSize, GroupIdx
//	LUT:         Row (Row ID), SrcOff (Offset_S), LUTBlock, DstOff (Offset_D)
type Instr struct {
	Op        Opcode
	Block     int
	Row       int
	DstBlock  int
	DstRow    int
	RowStart  int
	RowCount  int
	SrcOff    int
	Src2Off   int
	DstOff    int
	WordCount int
	LUTBlock  int
	Stride    int
	GroupSize int
	GroupIdx  int
}

func field(v uint64, shift, width uint) uint64 {
	return (v >> shift) & ((1 << width) - 1)
}

// Encode packs the instruction into a 64-bit word.
func Encode(in Instr) (uint64, error) {
	if in.Op >= numOpcodes {
		return 0, fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	check := func(name string, v, width int) error {
		if v < 0 || uint64(v) >= 1<<uint(width) {
			return fmt.Errorf("isa: %v field %s=%d exceeds %d bits", in.Op, name, v, width)
		}
		return nil
	}
	w := uint64(in.Op) << OpcodeShift
	switch in.Op {
	case OpNop:
	case OpRead, OpWrite:
		if err := check("block", in.Block, BlockIDBits); err != nil {
			return 0, err
		}
		if err := check("row", in.Row, RowBits); err != nil {
			return 0, err
		}
		w |= uint64(in.Block) << 39
		w |= uint64(in.Row) << 29
	case OpMemcpy:
		for _, c := range []struct {
			name  string
			v, wd int
		}{{"srcBlock", in.Block, BlockIDBits}, {"srcRow", in.Row, RowBits},
			{"dstBlock", in.DstBlock, BlockIDBits}, {"dstRow", in.DstRow, RowBits}} {
			if err := check(c.name, c.v, c.wd); err != nil {
				return 0, err
			}
		}
		w |= uint64(in.Block) << 39
		w |= uint64(in.Row) << 29
		w |= uint64(in.DstBlock) << 11
		w |= uint64(in.DstRow) << 1
	case OpBroadcast:
		for _, c := range []struct {
			name  string
			v, wd int
		}{{"srcRow", in.Row, RowBits}, {"rowStart", in.RowStart, RowBits},
			{"rowCount", in.RowCount, RowCountBits}, {"srcOff", in.SrcOff, WordOffBits},
			{"dstOff", in.DstOff, WordOffBits}, {"wordCount", in.WordCount, WordOffBits + 1}} {
			if err := check(c.name, c.v, c.wd); err != nil {
				return 0, err
			}
		}
		w |= uint64(in.Row) << 47
		w |= uint64(in.RowStart) << 37
		w |= uint64(in.RowCount) << 26
		w |= uint64(in.SrcOff) << 21
		w |= uint64(in.DstOff) << 16
		w |= uint64(in.WordCount) << 10
	case OpAdd, OpMul, OpSub:
		for _, c := range []struct {
			name  string
			v, wd int
		}{{"rowStart", in.RowStart, RowBits}, {"rowCount", in.RowCount, RowCountBits},
			{"dstOff", in.DstOff, WordOffBits}, {"srcOff", in.SrcOff, WordOffBits},
			{"src2Off", in.Src2Off, WordOffBits}} {
			if err := check(c.name, c.v, c.wd); err != nil {
				return 0, err
			}
		}
		w |= uint64(in.RowStart) << 47
		w |= uint64(in.RowCount) << 36
		w |= uint64(in.DstOff) << 31
		w |= uint64(in.SrcOff) << 26
		w |= uint64(in.Src2Off) << 21
	case OpGroupBcast, OpPattern:
		for _, c := range []struct {
			name  string
			v, wd int
		}{{"rowStart", in.RowStart, RowBits}, {"rowCount", in.RowCount, RowCountBits},
			{"srcOff", in.SrcOff, WordOffBits}, {"dstOff", in.DstOff, WordOffBits},
			{"stride", in.Stride, RowBits}, {"groupSize", in.GroupSize, 5},
			{"groupIdx", in.GroupIdx, 5}} {
			if err := check(c.name, c.v, c.wd); err != nil {
				return 0, err
			}
		}
		w |= uint64(in.RowStart) << 47
		w |= uint64(in.RowCount) << 36
		w |= uint64(in.SrcOff) << 31
		w |= uint64(in.DstOff) << 26
		w |= uint64(in.Stride) << 16
		w |= uint64(in.GroupSize) << 11
		if in.Op == OpPattern {
			// OpPattern repurposes the GroupIdx bits plus the tail for its
			// 10-bit storage base row (it has no group index).
			if err := check("row", in.Row, RowBits); err != nil {
				return 0, err
			}
			if in.GroupIdx != 0 {
				return 0, fmt.Errorf("isa: pattern instruction does not carry a group index")
			}
			w |= uint64(in.Row) << 1
		} else {
			w |= uint64(in.GroupIdx) << 6
		}
	case OpLUT:
		// Figure 4: [63:57] opcode, [56:31] Row ID, [30:26] Offset_S,
		// [25:5] LUT Block ID, [4:0] Offset_D.
		if err := check("rowID", in.Row, 26); err != nil {
			return 0, err
		}
		if err := check("offsetS", in.SrcOff, WordOffBits); err != nil {
			return 0, err
		}
		if err := check("lutBlock", in.LUTBlock, 21); err != nil {
			return 0, err
		}
		if err := check("offsetD", in.DstOff, WordOffBits); err != nil {
			return 0, err
		}
		w |= uint64(in.Row) << 31
		w |= uint64(in.SrcOff) << 26
		w |= uint64(in.LUTBlock) << 5
		w |= uint64(in.DstOff)
	}
	return w, nil
}

// Decode unpacks a 64-bit instruction word.
func Decode(w uint64) (Instr, error) {
	op := Opcode(field(w, OpcodeShift, 7))
	if op >= numOpcodes {
		return Instr{}, fmt.Errorf("isa: invalid opcode %d in %#x", op, w)
	}
	in := Instr{Op: op}
	switch op {
	case OpNop:
	case OpRead, OpWrite:
		in.Block = int(field(w, 39, BlockIDBits))
		in.Row = int(field(w, 29, RowBits))
	case OpMemcpy:
		in.Block = int(field(w, 39, BlockIDBits))
		in.Row = int(field(w, 29, RowBits))
		in.DstBlock = int(field(w, 11, BlockIDBits))
		in.DstRow = int(field(w, 1, RowBits))
	case OpBroadcast:
		in.Row = int(field(w, 47, RowBits))
		in.RowStart = int(field(w, 37, RowBits))
		in.RowCount = int(field(w, 26, RowCountBits))
		in.SrcOff = int(field(w, 21, WordOffBits))
		in.DstOff = int(field(w, 16, WordOffBits))
		in.WordCount = int(field(w, 10, WordOffBits+1))
	case OpAdd, OpMul, OpSub:
		in.RowStart = int(field(w, 47, RowBits))
		in.RowCount = int(field(w, 36, RowCountBits))
		in.DstOff = int(field(w, 31, WordOffBits))
		in.SrcOff = int(field(w, 26, WordOffBits))
		in.Src2Off = int(field(w, 21, WordOffBits))
	case OpGroupBcast, OpPattern:
		in.RowStart = int(field(w, 47, RowBits))
		in.RowCount = int(field(w, 36, RowCountBits))
		in.SrcOff = int(field(w, 31, WordOffBits))
		in.DstOff = int(field(w, 26, WordOffBits))
		in.Stride = int(field(w, 16, RowBits))
		in.GroupSize = int(field(w, 11, 5))
		if op == OpPattern {
			in.Row = int(field(w, 1, RowBits))
		} else {
			in.GroupIdx = int(field(w, 6, 5))
		}
	case OpLUT:
		in.Row = int(field(w, 31, 26))
		in.SrcOff = int(field(w, 26, WordOffBits))
		in.LUTBlock = int(field(w, 5, 21))
		in.DstOff = int(field(w, 0, WordOffBits))
	}
	return in, nil
}
