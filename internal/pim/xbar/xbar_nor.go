package xbar

import (
	"wavepim/internal/params"
	"wavepim/internal/pim/nor"
)

// NORUnit bundles a K-word slab circuit with the gather/scatter staging
// buffers ArithSelNOR needs, so the sim engine can pool one unit per
// worker and run arithmetic through the gate-level substrate without
// per-instruction allocation. Units are not safe for concurrent use; the
// engine hands each in-flight instruction its own.
type NORUnit struct {
	C          *nor.SlabCircuit
	av, bv, ov []uint32
}

// NewNORUnit builds a unit over a fresh slab circuit of the given width.
func NewNORUnit(slabWords int) *NORUnit {
	return &NORUnit{C: nor.NewSlabCircuit(slabWords)}
}

// SlabWords returns the unit's slab width in 64-bit words.
func (u *NORUnit) SlabWords() int { return u.C.K }

// buffers returns the three staging slices sized to n lanes, reusing the
// unit's backing arrays.
func (u *NORUnit) buffers(n int) (a, b, out []uint32) {
	if cap(u.av) < n {
		u.av = make([]uint32, n)
		u.bv = make([]uint32, n)
		u.ov = make([]uint32, n)
	}
	return u.av[:n], u.bv[:n], u.ov[:n]
}

// ArithSelNOR executes the same row-parallel FP32 operation as ArithSel,
// but produces every result through the bit-sliced NOR slab substrate
// (internal/pim/nor) instead of host floating point: the rowCount operand
// pairs are gathered into slabs of up to K words, each only as wide as
// the rows it holds, and driven through the gate-level
// IEEE-754 add/mul programs, whose bit-exactness against hardware floats
// is established by that package's property tests. Subtraction flips the
// second operand's sign plane and reuses the adder, exactly as the
// in-array sequence does (IEEE a-b == a+(-b) for every finite input and
// both zeros; NaN results canonicalize to the quiet NaN instead of
// propagating payloads). Timing and energy charging are identical to
// ArithSel — the substrate changes how the bits are computed, not what
// the hardware costs. Gate-level activity accumulates in u.C.Stats.
func (b *Block) ArithSelNOR(u *NORUnit, op ArithOp, rowStart, rowCount, dstOff, srcOff, src2Off int) {
	b.checkRows(rowStart, rowCount)
	b.checkOff(dstOff)
	b.checkOff(srcOff)
	b.checkOff(src2Off)
	av, bv, out := u.buffers(rowCount)
	for i := 0; i < rowCount; i++ {
		r := rowStart + i
		av[i] = b.cells[at(r, srcOff)]
		bv[i] = b.cells[at(r, src2Off)]
	}
	var steps int64
	switch op {
	case OpMul:
		steps = params.NORStepsFPMul32
		u.C.MulFP32Batch(av, bv, out)
	case OpSub:
		steps = params.NORStepsFPAdd32
		for i := range bv {
			bv[i] ^= 1 << 31
		}
		u.C.AddFP32Batch(av, bv, out)
	default:
		steps = params.NORStepsFPAdd32
		u.C.AddFP32Batch(av, bv, out)
	}
	for i := 0; i < rowCount; i++ {
		b.store(rowStart+i, dstOff, out[i])
	}
	if op == OpMul {
		b.Stats.MulOps += int64(rowCount)
	} else {
		b.Stats.AddOps += int64(rowCount)
	}
	b.Stats.NORSteps += steps
	b.Stats.BusySec += float64(steps) * params.TNORSeconds
	b.Stats.EnergyJ += float64(steps) * params.EnergyPerNORStep * float64(rowCount)
}
