package nor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The integer primitives under arbitrary lane masks. The fp32 drivers run
// them under masks that are not prefixes (resolved NaN/Inf lanes and zero
// products are cleared out of the middle of a tile), with carry-ins that
// are not zero, so these checks drive every primitive under sparse masks
// and compare values in every lane and Stats over the masked ones with
// the scalar circuit run lane by lane.

// Operand widths of the primitive checks: unequal adder widths exercise
// zero-extension, and the shifter takes 5 amount planes (0..31).
const (
	primAddA, primAddB = 20, 13
	primMul            = 12
	primMux            = 18
	primLZ             = 24
	primShift, primSh  = 20, 5
)

// primLanes is one lane's operands of the primitive checks.
type primLanes struct {
	a, b, sh uint64
	cin, sel bool
}

// checkPrimitives runs AddBits (with carry-in), MulBits, MuxBits,
// LeadingZeros and both shifters on a K-word slab under mask (one bool per
// lane, K*64 lanes) and compares each with the scalar circuit: values in
// every lane, Stats over the masked lanes.
func checkPrimitives(t testing.TB, k int, mask []bool, ops []primLanes) {
	t.Helper()
	n := k * Lanes
	sc := NewSlabCircuit(k)
	av, bv, shv := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	mv, cv, sv := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for l, op := range ops {
		av[l], bv[l], shv[l] = op.a, op.b, op.sh
		mv[l] = b2u(mask[l])
		cv[l] = b2u(op.cin)
		sv[l] = b2u(op.sel)
	}
	m := sc.PackSlab(mv, 1)[0]
	cin := sc.PackSlab(cv, 1)[0]
	sel := sc.PackSlab(sv, 1)[0]
	sh := sc.PackSlab(shv, primSh)

	type prim struct {
		name   string
		slab   func() SlabBits
		scalar func(c *Circuit, op primLanes) uint64
	}
	prims := []prim{
		{"AddBits", func() SlabBits {
			return sc.AddBits(m, sc.PackSlab(av, primAddA), sc.PackSlab(bv, primAddB), cin)
		}, func(c *Circuit, op primLanes) uint64 {
			return c.AddBits(BitsFromUint(op.a, primAddA), BitsFromUint(op.b, primAddB), op.cin).Uint()
		}},
		{"MulBits", func() SlabBits {
			return sc.MulBits(m, sc.PackSlab(av, primMul), sc.PackSlab(bv, primMul))
		}, func(c *Circuit, op primLanes) uint64 {
			return c.MulBits(BitsFromUint(op.a, primMul), BitsFromUint(op.b, primMul)).Uint()
		}},
		{"MuxBits", func() SlabBits {
			return sc.MuxBits(m, sel, sc.PackSlab(av, primMux), sc.PackSlab(bv, primMux-5))
		}, func(c *Circuit, op primLanes) uint64 {
			return c.MuxBits(op.sel, BitsFromUint(op.a, primMux), BitsFromUint(op.b, primMux-5)).Uint()
		}},
		{"LeadingZeros", func() SlabBits {
			return sc.LeadingZeros(m, sc.PackSlab(av, primLZ))
		}, func(c *Circuit, op primLanes) uint64 {
			return c.LeadingZeros(BitsFromUint(op.a, primLZ)).Uint()
		}},
		{"ShiftRightBits", func() SlabBits {
			out, sticky := sc.ShiftRightBits(m, sc.PackSlab(av, primShift), sh)
			return append(out, sticky) // the sticky plane rides on top
		}, func(c *Circuit, op primLanes) uint64 {
			out, sticky := c.ShiftRightBits(BitsFromUint(op.a, primShift), BitsFromUint(op.sh, primSh))
			return append(out, sticky).Uint()
		}},
		{"ShiftLeftBits", func() SlabBits {
			return sc.ShiftLeftBits(m, sc.PackSlab(av, primShift), sh)
		}, func(c *Circuit, op primLanes) uint64 {
			return c.ShiftLeftBits(BitsFromUint(op.a, primShift), BitsFromUint(op.sh, primSh)).Uint()
		}},
	}
	for _, p := range prims {
		sc.Stats = Stats{}
		got := p.slab()
		var want Stats
		for l, op := range ops {
			var c Circuit
			v := p.scalar(&c, op)
			if g := got.Lane(l); g != v {
				t.Fatalf("K=%d %s lane %d (masked %v, %+v): slab %#x, scalar %#x", k, p.name, l, mask[l], op, g, v)
			}
			if mask[l] {
				want.Add(c.Stats)
			}
		}
		if sc.Stats != want {
			t.Fatalf("K=%d %s stats: slab %+v, scalar %+v", k, p.name, sc.Stats, want)
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// randPrimLanes draws one lane's operands, skewed toward the zero and
// all-ones values that stop or run the carries and the priority scan.
func randPrimLanes(rng *rand.Rand) primLanes {
	draw := func() uint64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return ^uint64(0)
		case 2:
			return 1 << uint(rng.Intn(primLZ))
		default:
			return rng.Uint64()
		}
	}
	return primLanes{a: draw(), b: draw(), sh: uint64(rng.Intn(1 << primSh)),
		cin: rng.Intn(2) == 0, sel: rng.Intn(2) == 0}
}

// sparseMask is one named lane mask of the primitive checks.
type sparseMask struct {
	name  string
	lanes []bool
}

// sparseMasks returns the masks of the primitive checks for a K-word slab:
// empty, one lane, a random subset of the last word's lanes, a random
// subset of every word, and all lanes.
func sparseMasks(rng *rand.Rand, k int) []sparseMask {
	n := k * Lanes
	masks := []sparseMask{{name: "empty"}, {name: "one"}, {name: "lastword"}, {name: "random"}, {name: "all"}}
	for i := range masks {
		masks[i].lanes = make([]bool, n)
	}
	masks[1].lanes[rng.Intn(n)] = true
	for l := range n {
		masks[2].lanes[l] = l >= n-Lanes && rng.Intn(3) != 0
		masks[3].lanes[l] = rng.Intn(2) == 0
		masks[4].lanes[l] = true
	}
	return masks
}

func TestSlabPrimitivesSparseMask(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range slabWidths {
		for _, mask := range sparseMasks(rng, k) {
			t.Run(fmt.Sprintf("K=%d/%s", k, mask.name), func(t *testing.T) {
				ops := make([]primLanes, k*Lanes)
				for l := range ops {
					ops[l] = randPrimLanes(rng)
				}
				checkPrimitives(t, k, mask.lanes, ops)
			})
		}
	}
}

// FuzzSlabStats drives the primitive checks from raw bytes: lane l's mask
// bit is bit l%8 of maskBytes[l/8] (zero past the end), and its operands
// are read from opBytes cyclically, 18 bytes a lane. Every K in slabWidths
// runs the same lanes.
func FuzzSlabStats(f *testing.F) {
	f.Fuzz(func(t *testing.T, opBytes, maskBytes []byte) {
		for _, k := range slabWidths {
			n := k * Lanes
			mask := make([]bool, n)
			ops := make([]primLanes, n)
			for l := range n {
				if l/8 < len(maskBytes) {
					mask[l] = maskBytes[l/8]>>uint(l%8)&1 != 0
				}
				ops[l] = fuzzPrimLanes(opBytes, l)
			}
			checkPrimitives(t, k, mask, ops)
		}
	})
}

// fuzzPrimLanes reads lane l's operands from 18 bytes of ops starting at
// 18*l, wrapping around; an empty ops gives all-zero operands.
func fuzzPrimLanes(ops []byte, l int) primLanes {
	if len(ops) == 0 {
		return primLanes{}
	}
	at := func(i int) uint64 { return uint64(ops[(18*l+i)%len(ops)]) }
	var op primLanes
	for i := range 8 {
		op.a |= at(i) << uint(8*i)
		op.b |= at(8+i) << uint(8*i)
	}
	op.sh = at(16) & (1<<primSh - 1)
	op.cin = at(16)&0x80 != 0
	op.sel = at(17)&1 != 0
	return op
}

// BenchmarkSlabPrimitives times the integer primitives on the shapes the
// fp32 datapath runs them at (48-plane adds, muxes and priority scans of
// the product, the 24x24 significand multiply) over one word (64 lanes,
// the shape of a functional step's NOR call) and eight words (a full
// default slab). Operands are packed once; each iteration rewinds the
// arenas to just after them, so only the primitive is timed.
func BenchmarkSlabPrimitives(b *testing.B) {
	for _, pr := range []struct {
		name string
		run  func(c *SlabCircuit, mask, sel []Word, x, y SlabBits)
	}{
		{"AddBits", func(c *SlabCircuit, mask, _ []Word, x, y SlabBits) { c.AddBits(mask, x, y, c.zeroSlab()) }},
		{"MulBits", func(c *SlabCircuit, mask, _ []Word, x, y SlabBits) { c.MulBits(mask, x[:24], y[:24]) }},
		{"MuxBits", func(c *SlabCircuit, mask, sel []Word, x, y SlabBits) { c.MuxBits(mask, sel, x, y) }},
		{"LeadingZeros", func(c *SlabCircuit, mask, _ []Word, x, _ SlabBits) { c.LeadingZeros(mask, x) }},
	} {
		for _, w := range []int{1, DefaultSlabWords} {
			b.Run(fmt.Sprintf("%s/w%d", pr.name, w), func(b *testing.B) {
				rng := rand.New(rand.NewSource(18))
				lanes := w * Lanes
				xs, ys, sels := make([]uint64, lanes), make([]uint64, lanes), make([]uint64, lanes)
				for l := range xs {
					// 48-bit operands with a random number of leading zeros.
					xs[l] = rng.Uint64() >> uint(16+rng.Intn(48))
					ys[l] = rng.Uint64() >> 16
					sels[l] = uint64(rng.Intn(2))
				}
				c := NewSlabCircuit(DefaultSlabWords)
				c.startTile(lanes)
				mask := c.SlabMask(lanes)
				x, y := c.PackSlab(xs, 48), c.PackSlab(ys, 48)
				sel := c.PackSlab(sels, 1)[0]
				off, hoff := c.off, c.hoff
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.off, c.hoff = off, hoff
					pr.run(c, mask, sel, x, y)
				}
				reportNsPerLane(b, lanes)
			})
		}
	}
}

// reportNsPerLane reports the benchmark's elapsed time per processed lane.
func reportNsPerLane(b *testing.B, lanesPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanesPerOp), "ns/lane")
}
