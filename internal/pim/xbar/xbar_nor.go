package xbar

import (
	"wavepim/internal/params"
	"wavepim/internal/pim/nor"
)

// NORUnit bundles a K-word slab circuit with the gather/scatter staging
// buffers ArithSel needs, so the sim engine can own one unit per pool
// worker and run arithmetic through the gate-level substrate without
// per-instruction allocation. Units are not safe for concurrent use.
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

// ArithSel executes Block.ArithSel's row-parallel FP32 operation on the
// same rows and columns of every block in bs, but computes every result
// through the bit-sliced NOR slab substrate (internal/pim/nor) instead of
// host floating point: the operand pairs of all the blocks are gathered
// into one batch, run in slabs of up to K words through the gate-level
// IEEE-754 add/mul programs (bit-exact against hardware floats by that
// package's property tests), and scattered back. Each block is charged
// exactly what its own ArithSel charges: the substrate changes how the
// bits are computed, not what the hardware costs. A single block is a
// batch of one. Subtraction flips the second operand's sign plane and
// reuses the adder, as the in-array sequence does (IEEE a-b == a+(-b) for
// every finite input and both zeros; NaN results canonicalize to the
// quiet NaN instead of propagating payloads). Gate-level activity
// accumulates in u.C.Stats; it is counted per lane, so it does not depend
// on how blocks are batched.
func (u *NORUnit) ArithSel(bs []*Block, op ArithOp, rowStart, rowCount, dstOff, srcOff, src2Off int) {
	for _, b := range bs {
		b.checkRows(rowStart, rowCount)
		b.checkOff(dstOff)
		b.checkOff(srcOff)
		b.checkOff(src2Off)
	}
	av, bv, out := u.buffers(len(bs) * rowCount)
	for k, b := range bs {
		b.gather(av[k*rowCount:][:rowCount], rowStart, srcOff)
		b.gather(bv[k*rowCount:][:rowCount], rowStart, src2Off)
	}
	steps := int64(params.NORStepsFPAdd32)
	switch op {
	case OpMul:
		steps = params.NORStepsFPMul32
		u.C.MulFP32Batch(av, bv, out)
	case OpSub:
		for i := range bv {
			bv[i] ^= 1 << 31
		}
		u.C.AddFP32Batch(av, bv, out)
	default:
		u.C.AddFP32Batch(av, bv, out)
	}
	for k, b := range bs {
		b.scatter(rowStart, dstOff, out[k*rowCount:][:rowCount])
		if op == OpMul {
			b.Stats.MulOps += int64(rowCount)
		} else {
			b.Stats.AddOps += int64(rowCount)
		}
		b.Stats.NORSteps += steps
		b.Stats.BusySec += float64(steps) * params.TNORSeconds
		b.Stats.EnergyJ += float64(steps) * params.EnergyPerNORStep * float64(rowCount)
	}
}

// gather copies word off of the rows from row on into dst, a tile's run
// of rows at a time.
func (b *Block) gather(dst []uint32, row, off int) {
	for len(dst) > 0 {
		k := run(row, len(dst))
		copy(dst[:k], b.cells[at(row, off):])
		dst, row = dst[k:], row+k
	}
}

// scatter stores src into word off of the rows from row on, in row order,
// through the fault injector when one is attached.
func (b *Block) scatter(row, off int, src []uint32) {
	if b.Faults != nil {
		for i, v := range src {
			b.store(row+i, off, v)
		}
		return
	}
	for len(src) > 0 {
		k := run(row, len(src))
		copy(b.cells[at(row, off):][:k], src[:k])
		src, row = src[k:], row+k
	}
}
