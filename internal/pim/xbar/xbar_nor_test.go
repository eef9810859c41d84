package xbar

import (
	"math"
	"math/rand"
	"testing"
)

// randFinite32 draws a finite float32 bit pattern spanning normals,
// subnormals and zeros (no NaN/Inf: the slab substrate canonicalizes NaN
// payloads, which the hardware path does not promise either way).
func randFinite32(rng *rand.Rand) uint32 {
	for {
		v := rng.Uint32()
		if v&0x7F800000 != 0x7F800000 {
			return v
		}
	}
}

// NORUnit.ArithSel must be a drop-in for Block.ArithSel: identical result
// bits in the destination column, identical Stats charging, for all three
// ops, slab widths and partial row ranges, on one block and on a batch of
// three, whose operands share one slab call.
func TestArithSelNORMatchesArithSel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 2, 8} {
		u := NewNORUnit(k)
		if u.SlabWords() != k {
			t.Fatalf("SlabWords = %d, want %d", u.SlabWords(), k)
		}
		for _, op := range []ArithOp{OpAdd, OpSub, OpMul} {
			for _, span := range []struct{ start, count int }{
				{0, 1}, {0, 64}, {5, 100}, {900, 124},
			} {
				for _, n := range []int{1, 3} {
					hosts, gates := make([]*Block, n), make([]*Block, n)
					for i := range hosts {
						hosts[i], gates[i] = New(i), New(i)
						for r := span.start; r < span.start+span.count; r++ {
							a, b := randFinite32(rng), randFinite32(rng)
							hosts[i].SetWord(r, 3, a)
							hosts[i].SetWord(r, 4, b)
							gates[i].SetWord(r, 3, a)
							gates[i].SetWord(r, 4, b)
						}
						hosts[i].ArithSel(op, span.start, span.count, 7, 3, 4)
					}
					u.ArithSel(gates, op, span.start, span.count, 7, 3, 4)
					for i, host := range hosts {
						gate := gates[i]
						for r := span.start; r < span.start+span.count; r++ {
							hw, gw := host.GetWord(r, 7), gate.GetWord(r, 7)
							if hw != gw {
								t.Fatalf("K=%d op=%d block %d/%d row %d: gate %08x, host %08x (a=%g b=%g)",
									k, op, i, n, r, gw, hw,
									math.Float32frombits(host.GetWord(r, 3)),
									math.Float32frombits(host.GetWord(r, 4)))
							}
						}
						if host.Stats != gate.Stats {
							t.Fatalf("K=%d op=%d block %d/%d stats diverge: gate %+v, host %+v", k, op, i, n, gate.Stats, host.Stats)
						}
					}
					if u.C.Stats.NOREvals == 0 {
						t.Fatal("slab circuit recorded no gate activity")
					}
				}
			}
		}
	}
}

// The staging buffers are reused, not reallocated, across calls.
func TestNORUnitBufferReuse(t *testing.T) {
	u := NewNORUnit(2)
	b := New(0)
	for r := 0; r < 128; r++ {
		b.SetFloat(r, 0, float32(r))
		b.SetFloat(r, 1, 2)
	}
	bs := []*Block{b}
	u.ArithSel(bs, OpMul, 0, 128, 2, 0, 1)
	a1 := &u.av[0]
	u.ArithSel(bs, OpAdd, 0, 100, 2, 0, 1)
	if a1 != &u.av[0] {
		t.Error("staging buffers reallocated for a smaller call")
	}
	if got := b.GetFloat(64, 2); got != 66 {
		t.Errorf("add result = %g, want 66", got)
	}
}

// A warm NORUnit.ArithSel allocates nothing, on one block or on a batch
// of four: the staging buffers and the slab circuit's arenas and scratch
// are all recycled.
func TestArithSelNORAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	u := NewNORUnit(8)
	bs := make([]*Block, 4)
	for i := range bs {
		bs[i] = New(i)
		for r := 0; r < 64; r++ {
			bs[i].SetWord(r, 0, randFinite32(rng))
			bs[i].SetWord(r, 1, randFinite32(rng))
		}
	}
	for _, n := range []int{1, len(bs)} {
		for _, op := range []ArithOp{OpAdd, OpSub, OpMul} {
			for i := 0; i < 4; i++ { // size the unit
				u.ArithSel(bs[:n], op, 0, 64, 2, 0, 1)
			}
			if got := testing.AllocsPerRun(10, func() { u.ArithSel(bs[:n], op, 0, 64, 2, 0, 1) }); got != 0 {
				t.Errorf("%d blocks, op=%d: %v allocations per call, want 0", n, op, got)
			}
		}
	}
}
