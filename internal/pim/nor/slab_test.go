package nor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The slab substrate's contract is exact equivalence with the scalar gate
// path: for any batch and any slab width K, slab outputs AND Stats
// (NOREvals, Sets, Resets) match the scalar Circuit run once per lane.
// These tests enforce both over random inputs skewed toward the hard
// regions (subnormals, NaN, Inf, zeros, cancellation), the shared
// edge-case table, and the integer blocks.

var slabWidths = []int{1, 2, 3, 4, 8}

// randFP32 draws a float32 bit pattern from a category mix that exercises
// every datapath branch.
func randFP32(rng *rand.Rand) uint32 {
	switch rng.Intn(10) {
	case 0: // special exponents: NaN, Inf
		v := uint32(expMask) << 23
		if rng.Intn(2) == 0 {
			v |= uint32(rng.Intn(1 << 23)) // NaN when frac != 0
		}
		if rng.Intn(2) == 0 {
			v |= 1 << signShift
		}
		return v
	case 1: // zero and subnormals
		v := uint32(rng.Intn(1 << 23))
		if rng.Intn(2) == 0 {
			v |= 1 << signShift
		}
		return v
	case 2: // small exponents: results underflow to subnormals
		return uint32(rng.Intn(40))<<23 | uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<signShift
	case 3: // large exponents: results overflow to Inf
		return uint32(215+rng.Intn(40))<<23 | uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<signShift
	default: // anything
		return rng.Uint32()
	}
}

// scalarLanes runs the scalar datapath once per lane, returning the outputs
// and the total Stats — the reference the slab path must match exactly.
func scalarLanes(op func(*Circuit, uint32, uint32) uint32, a, b []uint32) ([]uint32, Stats) {
	var c Circuit
	out := make([]uint32, len(a))
	for i := range a {
		out[i] = op(&c, a[i], b[i])
	}
	return out, c.Stats
}

func checkLanesEqual(t *testing.T, name string, a, b, got, want []uint32, gotStats, wantStats Stats) {
	t.Helper()
	for l := range want {
		if got[l] != want[l] {
			t.Errorf("%s lane %d: (%08x, %08x) slab %08x, scalar %08x (%g op %g)",
				name, l, a[l], b[l], got[l], want[l],
				math.Float32frombits(a[l]), math.Float32frombits(b[l]))
		}
	}
	if gotStats != wantStats {
		t.Errorf("%s stats: slab %+v, scalar %+v", name, gotStats, wantStats)
	}
}

// checkAgainstScalar compares a slab fp32 result and its Stats with the
// scalar add (or mul) run once per lane.
func checkAgainstScalar(t *testing.T, name string, k int, a, b []uint32,
	mul bool, got []uint32, gotStats Stats) {
	t.Helper()
	op := (*Circuit).AddFP32
	if mul {
		op = (*Circuit).MulFP32
	}
	want, wantStats := scalarLanes(op, a, b)
	checkLanesEqual(t, fmt.Sprintf("%s K=%d", name, k), a, b, got, want, gotStats, wantStats)
}

// differentialLengths are the batch lengths the fp32 differential tests
// run at slab width k: empty operands, one partial tile, exactly one full
// tile of k*64 lanes, and a ragged count spanning two to three tiles,
// then random partial tiles.
func differentialLengths(rng *rand.Rand, k int) []int {
	tile := k * Lanes
	lengths := []int{0, 1 + rng.Intn(tile-1), tile, tile*(1+rng.Intn(2)) + 1 + rng.Intn(tile-1)}
	for len(lengths) < 12 {
		lengths = append(lengths, 1+rng.Intn(tile))
	}
	return lengths
}

func TestSlabMulFP32Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range slabWidths {
		c := NewSlabCircuit(k)
		for _, n := range differentialLengths(rng, k) {
			a := make([]uint32, n)
			b := make([]uint32, n)
			for i := range a {
				a[i], b[i] = randFP32(rng), randFP32(rng)
			}
			c.Stats = Stats{}
			got := make([]uint32, n)
			c.MulFP32Batch(a, b, got)
			checkAgainstScalar(t, fmt.Sprintf("MulFP32Batch n=%d", n), k, a, b, true, got, c.Stats)
		}
	}
}

func TestSlabAddFP32Differential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, k := range slabWidths {
		c := NewSlabCircuit(k)
		for _, n := range differentialLengths(rng, k) {
			a := make([]uint32, n)
			b := make([]uint32, n)
			for i := range a {
				a[i], b[i] = randFP32(rng), randFP32(rng)
				if rng.Intn(8) == 0 {
					b[i] = a[i] ^ 1<<signShift // exact cancellation
				}
				if rng.Intn(8) == 0 {
					b[i] = (a[i] + uint32(rng.Intn(4))) ^ 1<<signShift // near cancellation
				}
			}
			c.Stats = Stats{}
			got := make([]uint32, n)
			c.AddFP32Batch(a, b, got)
			checkAgainstScalar(t, fmt.Sprintf("AddFP32Batch n=%d", n), k, a, b, false, got, c.Stats)
		}
	}
}

// The shared edge-case table, all pairs, through the tiled Batch drivers
// (which also exercises partial final tiles).
func TestSlabFP32EdgeCasesBatch(t *testing.T) {
	var a, b []uint32
	for _, x := range fpEdgeCases {
		for _, y := range fpEdgeCases {
			a = append(a, x)
			b = append(b, y)
		}
	}
	for _, k := range slabWidths {
		c := NewSlabCircuit(k)
		got := make([]uint32, len(a))
		c.MulFP32Batch(a, b, got)
		checkAgainstScalar(t, "MulFP32Batch", k, a, b, true, got, c.Stats)

		c.Stats = Stats{}
		c.AddFP32Batch(a, b, got)
		checkAgainstScalar(t, "AddFP32Batch", k, a, b, false, got, c.Stats)
	}
}

// Integer blocks: each slab block must match the scalar block per lane in
// value, and the whole op sequence must match the scalar sequence run once
// per lane in Stats.
func TestSlabIntBlocksDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const width = 16
	for _, k := range slabWidths {
		for trial := 0; trial < 6; trial++ {
			n := 1 + rng.Intn(k*Lanes)
			av := make([]uint64, n)
			bv := make([]uint64, n)
			shv := make([]uint64, n)
			for i := range av {
				av[i] = uint64(rng.Intn(1 << width))
				bv[i] = uint64(rng.Intn(1 << width))
				shv[i] = uint64(rng.Intn(1 << 5))
			}

			sc := NewSlabCircuit(k)
			mask := sc.SlabMask(n)
			aPl := sc.PackSlab(av, width)
			bPl := sc.PackSlab(bv, width)
			shPl := sc.PackSlab(shv, 5)
			sum := sc.AddBits(mask, aPl, bPl, sc.zeroSlab())
			diff, ge := sc.SubBits(mask, aPl, bPl)
			prod := sc.MulBits(mask, aPl, bPl)
			shr, stk := sc.ShiftRightBits(mask, aPl, shPl)
			shl := sc.ShiftLeftBits(mask, aPl, shPl)
			lz := sc.LeadingZeros(mask, aPl)
			muxed := sc.MuxBits(mask, ge, aPl, bPl)

			var c Circuit
			for l := 0; l < n; l++ {
				a := BitsFromUint(av[l], width)
				b := BitsFromUint(bv[l], width)
				sh := BitsFromUint(shv[l], 5)
				if got, want := sum.Lane(l), c.AddBits(a, b, false).Uint(); got != want {
					t.Fatalf("K=%d AddBits lane %d: %x != %x", k, l, got, want)
				}
				wd, wge := c.SubBits(a, b)
				if got := diff.Lane(l); got != wd.Uint() {
					t.Fatalf("K=%d SubBits lane %d: %x != %x", k, l, got, wd.Uint())
				}
				if got := maskBit(ge, l); got != wge {
					t.Fatalf("K=%d SubBits noBorrow lane %d: %v != %v", k, l, got, wge)
				}
				if got, want := prod.Lane(l), c.MulBits(a, b).Uint(); got != want {
					t.Fatalf("K=%d MulBits lane %d: %x != %x", k, l, got, want)
				}
				wshr, wstk := c.ShiftRightBits(a, sh)
				if got := shr.Lane(l); got != wshr.Uint() {
					t.Fatalf("K=%d ShiftRightBits lane %d: %x != %x", k, l, got, wshr.Uint())
				}
				if got := maskBit(stk, l); got != wstk {
					t.Fatalf("K=%d sticky lane %d: %v != %v", k, l, got, wstk)
				}
				if got, want := shl.Lane(l), c.ShiftLeftBits(a, sh).Uint(); got != want {
					t.Fatalf("K=%d ShiftLeftBits lane %d: %x != %x", k, l, got, want)
				}
				if got, want := lz.Lane(l), c.LeadingZeros(a).Uint(); got != want {
					t.Fatalf("K=%d LeadingZeros lane %d: %d != %d", k, l, got, want)
				}
				// MUX: a where sel=0, b where sel=1.
				if got, want := muxed.Lane(l), c.MuxBits(wge, a, b).Uint(); got != want {
					t.Fatalf("K=%d MuxBits lane %d: %x != %x (ge=%v)", k, l, got, want, wge)
				}
			}
			if sc.Stats != c.Stats {
				t.Fatalf("K=%d int block stats: slab %+v, scalar %+v", k, sc.Stats, c.Stats)
			}
		}
	}
}

// Batch drivers tile correctly at lengths that are not slab multiples: a
// ragged last tile runs over fewer words, and must still match the scalar
// path in values and Stats. One circuit per K runs every length, with a
// 64-lane call before and after a 600-lane one, so no tile width or
// scratch state leaks from one call into the next; repeated batches reuse
// both arenas (no growth after warm-up).
func TestSlabBatchTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lengths := []int{1, 63, 64, 65, 512, 513, 600, 1100, 64, 600, 64}
	type batch struct {
		a, b               []uint32
		wantMul, wantAdd   []uint32
		mulStats, addStats Stats
	}
	batches := make(map[int]*batch)
	for _, n := range lengths {
		if batches[n] != nil {
			continue
		}
		in := &batch{a: make([]uint32, n), b: make([]uint32, n)}
		for i := range in.a {
			in.a[i], in.b[i] = randFP32(rng), randFP32(rng)
		}
		in.wantMul, in.mulStats = scalarLanes((*Circuit).MulFP32, in.a, in.b)
		in.wantAdd, in.addStats = scalarLanes((*Circuit).AddFP32, in.a, in.b)
		batches[n] = in
	}
	for _, k := range []int{1, 2, 8} {
		c := NewSlabCircuit(k)
		for _, n := range lengths {
			in := batches[n]
			got := make([]uint32, n)
			c.Stats = Stats{}
			c.MulFP32Batch(in.a, in.b, got)
			checkLanesEqual(t, fmt.Sprintf("MulFP32Batch K=%d n=%d", k, n), in.a, in.b, got, in.wantMul, c.Stats, in.mulStats)
			c.Stats = Stats{}
			c.AddFP32Batch(in.a, in.b, got)
			checkLanesEqual(t, fmt.Sprintf("AddFP32Batch K=%d n=%d", k, n), in.a, in.b, got, in.wantAdd, c.Stats, in.addStats)
		}
	}
	// Arenas are recycled between tiles: a second identical batch must
	// not grow the slab or the header backing store.
	c := NewSlabCircuit(2)
	a := make([]uint32, 4*c.SlabLanes())
	b := make([]uint32, len(a))
	for i := range a {
		a[i], b[i] = randFP32(rng), randFP32(rng)
	}
	out := make([]uint32, len(a))
	c.AddFP32Batch(a, b, out)
	slabs, hdrs := len(c.arena), len(c.hdrs)
	c.AddFP32Batch(a, b, out)
	if len(c.arena) != slabs || len(c.hdrs) != hdrs {
		t.Errorf("arenas grew across identical batches: slab %d -> %d words, headers %d -> %d",
			slabs, len(c.arena), hdrs, len(c.hdrs))
	}
}

// A warm circuit allocates nothing per call: slabs, plane headers and the
// per-lane host scratch all belong to the circuit.
func TestSlabAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{1, 8} {
		for _, n := range []int{64, 512, 600} {
			a := make([]uint32, n)
			b := make([]uint32, n)
			for i := range a {
				a[i], b[i] = randFP32(rng), randFP32(rng)
			}
			out := make([]uint32, n)
			c := NewSlabCircuit(k)
			for _, op := range []struct {
				name string
				run  func(a, b, out []uint32)
			}{{"AddFP32Batch", c.AddFP32Batch}, {"MulFP32Batch", c.MulFP32Batch}} {
				for i := 0; i < 4; i++ { // size the arenas
					op.run(a, b, out)
				}
				if got := testing.AllocsPerRun(10, func() { op.run(a, b, out) }); got != 0 {
					t.Errorf("K=%d n=%d %s: %v allocations per call, want 0", k, n, op.name, got)
				}
			}
		}
	}
}

// Construction, packing and masking edges.
func TestSlabEdges(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSlabCircuit(0) should panic")
			}
		}()
		NewSlabCircuit(0)
	}()
	c := NewSlabCircuit(3)
	if c.SlabLanes() != 192 {
		t.Fatalf("SlabLanes = %d, want 192", c.SlabLanes())
	}
	// Pack/Lane roundtrip across word boundaries.
	vals := make([]uint64, 150)
	rng := rand.New(rand.NewSource(15))
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 20))
	}
	pl := c.PackSlab(vals, 20)
	for l, v := range vals {
		if pl.Lane(l) != v {
			t.Fatalf("PackSlab/Lane roundtrip lane %d: %x != %x", l, pl.Lane(l), v)
		}
	}
	m := c.SlabMask(100)
	for l := 0; l < c.SlabLanes(); l++ {
		if maskBit(m, l) != (l < 100) {
			t.Fatalf("SlabMask(100) wrong at lane %d", l)
		}
	}
}

// transpose64 is the full 64x64 bit-matrix transpose, level by level
// from j = 32 down: the reference the narrow transposes must match.
func transpose64(a *[Lanes]Word) {
	for j, m := 32, Word(0x00000000FFFFFFFF); j > 0; j >>= 1 {
		for k := 0; k < Lanes; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		m ^= m << uint(j>>1)
	}
}

// The narrow transposes agree with transpose64 at every width: packing
// (level 32, then transposeKeep) on the rows it keeps of a full random
// matrix, and read-back (transposeLow, then level 32) on every row of a
// random matrix whose rows from the width on are zero. Both are also
// checked through packSlab, whose narrow widths do level 32 as they load,
// and laneWord, which leaves it to the lane reads, against Lane.
func TestNarrowTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for width := 1; width <= Lanes; width++ {
		for trial := 0; trial < 8; trial++ {
			var full, low [Lanes]Word
			for r := range full {
				full[r] = rng.Uint64()
				if r < width {
					low[r] = rng.Uint64()
				}
			}
			want, got := full, full
			transpose64(&want)
			swapBlocks(&got, 32, 0x00000000FFFFFFFF, Lanes)
			transposeKeep(&got, width)
			if !slices.Equal(got[:width], want[:width]) {
				t.Fatalf("width %d: transposeKeep's kept rows differ from transpose64", width)
			}
			want, got = low, low
			transpose64(&want)
			transposeLow(&got, width)
			swapBlocks(&got, 32, 0x00000000FFFFFFFF, Lanes)
			if got != want {
				t.Fatalf("width %d: transposeLow differs from transpose64", width)
			}
		}
		c := NewSlabCircuit(3)
		vals := make([]uint64, 150)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		pl := c.PackSlab(vals, width)
		for l, v := range vals {
			if wantV := v & (^uint64(0) >> uint(Lanes-width)); pl.Lane(l) != wantV {
				t.Fatalf("width %d lane %d: packed %x, want %x", width, l, pl.Lane(l), wantV)
			}
		}
		for w := 0; w < c.K && width <= Lanes/2; w++ {
			lanes := pl.laneWord(w)
			for j := 0; j < Lanes; j++ {
				if l := w*Lanes + j; uint64(lanes.lane(j)) != pl.Lane(l) {
					t.Fatalf("width %d lane %d: read back %x, Lane %x", width, l, lanes.lane(j), pl.Lane(l))
				}
			}
		}
		c.ResetArena()
	}
}
