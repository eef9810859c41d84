package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

// fusedLUT is the LUT block the fused programs read; it runs no program.
const fusedLUT = 200

// specialWord draws a float32 bit pattern, most often one of the values
// the NOR datapath treats apart: signed zeros, NaNs with payloads,
// infinities and subnormals.
func specialWord(rng *rand.Rand) uint32 {
	sign := uint32(rng.Intn(2)) << 31
	switch rng.Intn(6) {
	case 0:
		return sign // ±0
	case 1:
		return sign | 0x7F800000 | uint32(1+rng.Intn(1<<22)) // NaN
	case 2:
		return sign | 0x7F800000 // ±Inf
	case 3:
		return sign | uint32(1+rng.Intn(1<<23-1)) // subnormal
	}
	return rng.Uint32()
}

// fusedGroups returns two programs over rows [start, start+count): one on
// the even blocks of 0..7 and one on the odd ones. Both subtract, multiply
// and add special operands, and read the LUT block, and the first also
// broadcasts within row groups before its last multiply.
func fusedGroups(start, count int) []ProgGroup {
	arith := func(op isa.Opcode, dst, a, b int) isa.Instr {
		return isa.Instr{Op: op, RowStart: start, RowCount: count, DstOff: dst, SrcOff: a, Src2Off: b}
	}
	lut := isa.Instr{Op: isa.OpLUT, Row: start + count/2, SrcOff: 7, LUTBlock: fusedLUT, DstOff: 9}
	even := []isa.Instr{
		arith(isa.OpSub, 4, 0, 1),
		arith(isa.OpMul, 5, 4, 2),
		{Op: isa.OpGroupBcast, RowStart: start, RowCount: count, SrcOff: 5, DstOff: 6, Stride: 2, GroupSize: 4, GroupIdx: 1},
		arith(isa.OpAdd, 8, 6, 3),
		lut,
		arith(isa.OpMul, 10, 8, 9),
	}
	odd := []isa.Instr{
		arith(isa.OpAdd, 4, 1, 2),
		lut,
		arith(isa.OpSub, 5, 4, 9),
		arith(isa.OpMul, 6, 5, 0),
	}
	return []ProgGroup{{Prog: even, Blocks: []int{0, 2, 4, 6}}, {Prog: odd, Blocks: []int{1, 3, 5, 7}}}
}

// fusedEngine loads seeded special operands into columns 0..3 of blocks
// 0..7, LUT indices into column 7, and the LUT block's words.
func fusedEngine(t *testing.T, k, workers int) *Engine {
	e := newEngine(t)
	e.SlabWords, e.Workers = k, workers
	rng := rand.New(rand.NewSource(30))
	for id := 0; id < 8; id++ {
		b := e.Chip.Block(id)
		for r := 0; r < xbar.Rows; r++ {
			for off := 0; off < 4; off++ {
				b.SetWord(r, off, specialWord(rng))
			}
			b.SetWord(r, 7, uint32(rng.Intn(xbar.Rows*xbar.WordsPerRow)))
		}
	}
	lut := e.Chip.Block(fusedLUT)
	for r := 0; r < xbar.Rows; r++ {
		for off := 0; off < xbar.WordsPerRow; off++ {
			lut.SetWord(r, off, specialWord(rng))
		}
	}
	return e
}

// A phase replayed instruction-major on the NOR slab (every arithmetic
// instruction one slab call across a chunk of blocks) leaves the cells,
// per-block crossbar Stats, gate totals, instruction count and phase cost
// of the same programs run as one-block phases, each of whose slab calls
// holds one block's rows. Rows 64 and 16 (a face's rows, across a
// crossbar tile boundary), slab widths 1 and 8, and 1, 2 and 3 workers,
// which split each four-block group unevenly. Run with -race.
func TestFusedSlabPhaseMatchesPerBlock(t *testing.T) {
	for _, rows := range []struct{ start, count int }{{0, 64}, {120, 16}} {
		groups := fusedGroups(rows.start, rows.count)
		for _, k := range []int{1, 8} {
			for _, workers := range []int{1, 2, 3} {
				name := fmt.Sprintf("rows=%d/K=%d/workers=%d", rows.count, k, workers)
				fused, ref := fusedEngine(t, k, workers), fusedEngine(t, k, workers)
				var p BlocksPrice
				ph := fused.ExecBlocksPriced("fused", groups, &p)
				if want := 2 * min(workers, 4); len(p.chunks) != want {
					t.Fatalf("%s: %d chunks, want %d", name, len(p.chunks), want)
				}
				var dur, energy float64
				for id := 0; id < 8; id++ {
					var one BlocksPrice
					rp := ref.ExecBlocksPriced("one", []ProgGroup{{Prog: groups[id%2].Prog, Blocks: []int{id}}}, &one)
					dur = max(dur, rp.Dur)
					energy += rp.EnergyJ
				}
				if ph.Dur != dur || ph.EnergyJ != energy {
					t.Errorf("%s: phase (%g s, %g J), one-block phases (%g s, %g J)", name, ph.Dur, ph.EnergyJ, dur, energy)
				}
				if fused.InstrCount != ref.InstrCount {
					t.Errorf("%s: %d instructions, one-block phases %d", name, fused.InstrCount, ref.InstrCount)
				}
				if a, b := fused.NORGateStats(), ref.NORGateStats(); a != b || a.NOREvals == 0 {
					t.Errorf("%s: gate stats %+v, one-block phases %+v", name, a, b)
				}
				for _, id := range []int{0, 1, 2, 3, 4, 5, 6, 7, fusedLUT} {
					fb, rb := fused.Chip.Block(id), ref.Chip.Block(id)
					if !reflect.DeepEqual(fb.Snapshot(), rb.Snapshot()) {
						t.Errorf("%s: block %d cells differ", name, id)
					}
					if fb.Stats != rb.Stats {
						t.Errorf("%s: block %d stats %+v, one-block phases %+v", name, id, fb.Stats, rb.Stats)
					}
				}
			}
		}
	}
}
