package nor

import (
	"fmt"
	"math"
	"math/bits"
)

// Lane-parallel ("bit-sliced") evaluation of the NOR substrate. A crossbar
// evaluates one NOR per column per step but has CellsPerRow columns working
// in parallel (Section 2.3); SlabCircuit mirrors that column parallelism in
// software. A Word holds one bit of 64 independent gate networks ("lanes"),
// and each bit plane is a slab of up to K words, so one gate evaluation
// drives up to K*64 lanes with a single tight loop over contiguous words —
// SIMDRAM's observation that bit-serial throughput scales with effective
// SIMD width, applied to the software model. K=1 is the plain one-word
// bit-sliced path; larger K amortizes per-gate bookkeeping (function call,
// Stats update) over more lanes.
//
// Equivalence contract with the scalar Circuit, at every K:
//
//   - Every SlabCircuit method mirrors the exact NOR decomposition of the
//     corresponding Circuit method. For any lane selected by the mask, the
//     gates evaluated are precisely the gates the scalar path evaluates for
//     that lane's operands — including data-dependent control flow, which
//     is expressed as lane masks instead of branches.
//   - Stats accounting is exact, not approximate: a gate evaluated under a
//     mask adds popcount(mask) NOREvals and Resets, and popcount(out&mask)
//     Sets — the same totals the scalar path accrues when run once per
//     lane. The property tests in slab_test.go enforce values and Stats
//     for K in {1,2,3,4,8}.
//
// Masking discipline: gate outputs are computed across all lanes (the mask
// only gates the accounting), so values flow correctly through lanes that
// diverged earlier and reconverge via host-side plane merges.
//
// Tile width: K is the widest tile, not the width of every tile. The fp32
// drivers run each tile over only the w = ceil(lanes/64) words its lanes
// occupy, so a 64-lane call on a K=8 circuit does one word of gate work
// per plane, not eight. Stats cannot tell: the words past the live lanes
// would carry a zero mask, and a zero mask adds no evals and no sets.
//
// Memory: plane slabs and plane headers (the SlabBits slices) are
// bump-allocated from two circuit-owned arenas that ResetArena recycles
// between tiles, and the per-lane host scratch (exponents, shift amounts)
// is sized to K*64 lanes when the circuit is built, so a warm circuit
// allocates nothing per call.

// Word is 64 lanes of one bit position.
type Word = uint64

// Lanes is the lane width of one Word.
const Lanes = 64

// LaneMask returns the word mask selecting the first n lanes.
func LaneMask(n int) Word {
	if n < 0 || n > Lanes {
		panic(fmt.Sprintf("nor: lane count %d out of range [0,%d]", n, Lanes))
	}
	if n == Lanes {
		return ^Word(0)
	}
	return Word(1)<<uint(n) - 1
}

func lanesToBits(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

func lanesFromBits(v []uint32) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = math.Float32frombits(x)
	}
	return out
}

// DefaultSlabWords is the slab width used when callers do not choose one:
// wide enough to amortize per-gate overhead, narrow enough that one
// fp32 datapath's live planes stay in L1d.
const DefaultSlabWords = 8

// SlabBits is a bit-plane vector over slabs: SlabBits[i] holds bit i of
// every lane, as a slab of words (lane l lives in word l/64, bit l%64).
// The slabs of one vector are arena-allocated back to back, so
// plane-sequential gate loops walk contiguous memory. Gates never write
// through a SlabBits they are given, so vectors may share planes.
type SlabBits [][]Word

// SlabCircuit evaluates up to K*64 NOR gates per plane operation and
// records the same Stats the scalar Circuit would for the masked lanes.
type SlabCircuit struct {
	Stats Stats
	K     int

	w     int    // words per slab in the current tile: K outside one
	arena []Word // bump-allocated slab storage, recycled per tile
	off   int
	hdrs  [][]Word // bump-allocated plane headers, recycled with arena
	hoff  int
	zero  []Word // shared all-zero slab of K words, read-only

	er, el []int    // per-lane result and larger-operand exponents
	vals   []uint64 // per-lane values staged for PackSlab
}

// NewSlabCircuit returns a circuit with slabs of up to K words (K*64
// lanes).
func NewSlabCircuit(k int) *SlabCircuit {
	if k < 1 {
		panic(fmt.Sprintf("nor: slab width %d must be >= 1", k))
	}
	n := k * Lanes
	return &SlabCircuit{
		K: k, w: k, zero: make([]Word, k),
		er: make([]int, n), el: make([]int, n), vals: make([]uint64, n),
	}
}

// SlabLanes returns the lane capacity of the circuit.
func (c *SlabCircuit) SlabLanes() int { return c.K * Lanes }

// grab bump-allocates one uninitialized slab of the current tile width.
// Callers must fully overwrite it (every gate does) or use zeroSlab for
// all-zero planes.
func (c *SlabCircuit) grab() []Word {
	if c.off+c.w > len(c.arena) {
		n := 1024 * c.K
		if n < 2*len(c.arena) {
			n = 2 * len(c.arena)
		}
		c.arena = make([]Word, n)
		c.off = 0
	}
	s := c.arena[c.off : c.off+c.w : c.off+c.w]
	c.off += c.w
	return s
}

// grabZero is grab plus clearing (for planes built up incrementally).
func (c *SlabCircuit) grabZero() []Word {
	s := c.grab()
	clear(s)
	return s
}

// planes bump-allocates a header vector of n planes. Its entries are
// stale: callers set every one.
func (c *SlabCircuit) planes(n int) SlabBits {
	if c.hoff+n > len(c.hdrs) {
		m := max(1024, 2*len(c.hdrs), n)
		c.hdrs = make([][]Word, m)
		c.hoff = 0
	}
	s := c.hdrs[c.hoff : c.hoff+n : c.hoff+n]
	c.hoff += n
	return s
}

// zeroPlanes is planes with every entry the shared zero slab.
func (c *SlabCircuit) zeroPlanes(n int) SlabBits {
	s := c.planes(n)
	for i := range s {
		s[i] = c.zero
	}
	return s
}

// zeroSlab returns the shared all-zero slab. Read-only: callers must
// never write through it.
func (c *SlabCircuit) zeroSlab() []Word { return c.zero }

// ResetArena recycles all slabs and plane headers handed out since the
// last reset and restores the full K-word slab width. Any SlabBits or mask
// obtained earlier becomes invalid; the fp32 drivers reset between tiles
// after extracting host-side results.
func (c *SlabCircuit) ResetArena() { c.startTile(c.SlabLanes()) }

// startTile recycles the arenas and sizes the slabs that follow to the
// words that n lanes occupy.
func (c *SlabCircuit) startTile(n int) {
	c.off, c.hoff = 0, 0
	c.w = (n + Lanes - 1) / Lanes
}

// ---------------------------------------------------------------------------
// Masks and packing (host-side, no gate cost — the scalar path's branch
// predicates and operand moves are free too)
// ---------------------------------------------------------------------------

// SlabMask returns the mask slab selecting the first n lanes of the
// current slab width (K*64 lanes outside an fp32 tile).
func (c *SlabCircuit) SlabMask(n int) []Word {
	if n < 0 || n > c.w*Lanes {
		panic(fmt.Sprintf("nor: lane count %d out of range [0,%d]", n, c.w*Lanes))
	}
	m := c.grab()
	for w := range m {
		m[w] = LaneMask(min(max(n-w*Lanes, 0), Lanes))
	}
	return m
}

// maskAnd, maskAndNot, maskOr and maskNot are host-side mask algebra:
// `a & b` etc. applied word by word across the slab.
func (c *SlabCircuit) maskAnd(a, b []Word) []Word {
	o := c.grab()
	for i := range o {
		o[i] = a[i] & b[i]
	}
	return o
}

func (c *SlabCircuit) maskAndNot(a, b []Word) []Word {
	o := c.grab()
	for i := range o {
		o[i] = a[i] &^ b[i]
	}
	return o
}

func (c *SlabCircuit) maskOr(a, b []Word) []Word {
	o := c.grab()
	for i := range o {
		o[i] = a[i] | b[i]
	}
	return o
}

func (c *SlabCircuit) maskNot(a []Word) []Word {
	o := c.grab()
	for i := range o {
		o[i] = ^a[i]
	}
	return o
}

func maskEmpty(m []Word) bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

func maskBit(m []Word, l int) bool { return m[l>>6]&(Word(1)<<uint(l&63)) != 0 }

func setMaskBit(m []Word, l int) { m[l>>6] |= Word(1) << uint(l&63) }

func clearMaskBit(m []Word, l int) { m[l>>6] &^= Word(1) << uint(l&63) }

// PackSlab builds bit planes from up to K*64 per-lane values (inside an
// fp32 tile, up to the tile's lanes).
func (c *SlabCircuit) PackSlab(vals []uint64, width int) SlabBits {
	return packSlab(c, vals, width)
}

// packSlab builds the low width (at most 64) bit planes of per-lane
// values, one 64-lane word at a time by a bit-matrix transpose; lanes past
// len(vals) read as zero.
func packSlab[T uint32 | uint64](c *SlabCircuit, vals []T, width int) SlabBits {
	if len(vals) > c.w*Lanes {
		panic(fmt.Sprintf("nor: %d lane values exceed %d slab lanes", len(vals), c.w*Lanes))
	}
	out := c.planes(width)
	for i := range out {
		out[i] = c.grab()
	}
	for w := 0; w < c.w; w++ {
		var m [Lanes]Word
		for j, v := range vals[min(w*Lanes, len(vals)):min((w+1)*Lanes, len(vals))] {
			m[j] = Word(v)
		}
		transpose64(&m)
		for i, p := range out {
			p[w] = m[i]
		}
	}
	return out
}

// laneWord reads back word w of up to 64 planes: element j of the result
// is the value of lane 64*w+j.
func (s SlabBits) laneWord(w int) [Lanes]Word {
	var m [Lanes]Word
	for i, p := range s {
		m[i] = p[w]
	}
	transpose64(&m)
	return m
}

// transpose64 transposes a 64x64 bit matrix in place: bit c of row r
// moves to bit r of row c. With lanes as rows it turns lane values into
// bit planes, and back. Each level swaps the off-diagonal j x j blocks of
// every 2j x 2j block, halving j from 32 to 1.
func transpose64(a *[Lanes]Word) {
	m := Word(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < Lanes; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		m ^= m << uint(j>>1)
	}
}

// Lane extracts one lane's value from the planes (panics if wider than 64
// planes).
func (s SlabBits) Lane(l int) uint64 {
	if len(s) > 64 {
		panic("nor: SlabBits wider than 64")
	}
	w, b := l>>6, uint(l&63)
	var v uint64
	for i, p := range s {
		v |= (p[w] >> b & 1) << uint(i)
	}
	return v
}

// ---------------------------------------------------------------------------
// Gate primitives — the cache-blocked inner loops. Each runs over the words
// of its output slab (the tile width); inputs are at least that wide.
// ---------------------------------------------------------------------------

func (c *SlabCircuit) nor1(mask, a []Word) []Word {
	out := c.grab()
	mask, a = mask[:len(out)], a[:len(out)]
	var evals, sets int64
	for i := range out {
		o := ^a[i]
		out[i] = o
		evals += int64(bits.OnesCount64(mask[i]))
		sets += int64(bits.OnesCount64(o & mask[i]))
	}
	c.Stats.NOREvals += evals
	c.Stats.Resets += evals
	c.Stats.Sets += sets
	return out
}

func (c *SlabCircuit) nor2(mask, a, b []Word) []Word {
	out := c.grab()
	mask, a, b = mask[:len(out)], a[:len(out)], b[:len(out)]
	var evals, sets int64
	for i := range out {
		o := ^(a[i] | b[i])
		out[i] = o
		evals += int64(bits.OnesCount64(mask[i]))
		sets += int64(bits.OnesCount64(o & mask[i]))
	}
	c.Stats.NOREvals += evals
	c.Stats.Resets += evals
	c.Stats.Sets += sets
	return out
}

// NOR is the two-input primitive over the masked lanes.
func (c *SlabCircuit) NOR(mask, a, b []Word) []Word { return c.nor2(mask, a, b) }

// NOT is NOR with one input.
func (c *SlabCircuit) NOT(mask, a []Word) []Word { return c.nor1(mask, a) }

// The composite gates below are FUSED: instead of materializing every
// intermediate NOR output as its own slab (a memory round-trip per gate),
// one loop per composite keeps the whole NOR chain of each word in
// registers and writes only the final plane(s). The gates evaluated — and
// therefore Stats — are exactly the scalar decompositions, intermediate by
// intermediate (including re-evaluated duplicates like the two NOT(a)
// gates inside a full adder); only the memory traffic changes.

// OR is NOT(NOR(a,b)): 2 gates.
func (c *SlabCircuit) OR(mask, a, b []Word) []Word {
	out := c.grab()
	mask, a, b = mask[:len(out)], a[:len(out)], b[:len(out)]
	var evals, sets int64
	for i := range out {
		m := mask[i]
		g1 := ^(a[i] | b[i])
		o := ^g1
		out[i] = o
		evals += int64(bits.OnesCount64(m))
		sets += int64(bits.OnesCount64(g1&m) + bits.OnesCount64(o&m))
	}
	c.Stats.NOREvals += 2 * evals
	c.Stats.Resets += 2 * evals
	c.Stats.Sets += sets
	return out
}

// AND is NOR(NOT a, NOT b): 3 gates.
func (c *SlabCircuit) AND(mask, a, b []Word) []Word {
	out := c.grab()
	mask, a, b = mask[:len(out)], a[:len(out)], b[:len(out)]
	var evals, sets int64
	for i := range out {
		m := mask[i]
		g1 := ^a[i]
		g2 := ^b[i]
		o := ^(g1 | g2)
		out[i] = o
		evals += int64(bits.OnesCount64(m))
		sets += int64(bits.OnesCount64(g1&m) + bits.OnesCount64(g2&m) +
			bits.OnesCount64(o&m))
	}
	c.Stats.NOREvals += 3 * evals
	c.Stats.Resets += 3 * evals
	c.Stats.Sets += sets
	return out
}

// XOR from five NORs, as in the scalar gate.
func (c *SlabCircuit) XOR(mask, a, b []Word) []Word {
	out := c.grab()
	mask, a, b = mask[:len(out)], a[:len(out)], b[:len(out)]
	var evals, sets int64
	for i := range out {
		m := mask[i]
		av, bv := a[i], b[i]
		g1 := ^(av | bv)
		g2 := ^av
		g3 := ^bv
		g4 := ^(g2 | g3)
		o := ^(g1 | g4)
		out[i] = o
		evals += int64(bits.OnesCount64(m))
		sets += int64(bits.OnesCount64(g1&m) + bits.OnesCount64(g2&m) +
			bits.OnesCount64(g3&m) + bits.OnesCount64(g4&m) +
			bits.OnesCount64(o&m))
	}
	c.Stats.NOREvals += 5 * evals
	c.Stats.Resets += 5 * evals
	c.Stats.Sets += sets
	return out
}

// plane returns s[i], or the zero slab past the end (zero-extension of
// the shorter operand, as in the scalar blocks).
func (c *SlabCircuit) plane(s SlabBits, i int) []Word {
	if i < len(s) {
		return s[i]
	}
	return c.zero
}

// AddBits returns a + b (+ cin) over max(len(a), len(b)) planes plus a
// final carry plane: a ripple of full adders, each two XORs plus the
// carry network, 18 gates. The ripple carries through one scratch slab.
// Six of each adder's gates recompute a value another already computed
// (the carry network's NOT a, NOT b, NOT axb, NOT cin and its two ANDs),
// so their Sets are counted twice from one popcount.
func (c *SlabCircuit) AddBits(mask []Word, a, b SlabBits, cin []Word) SlabBits {
	n := max(len(a), len(b))
	out := c.planes(n + 1)
	carry := c.grab()
	copy(carry, cin)
	mask = mask[:len(carry)]
	var evals, sets int64
	for _, m := range mask {
		evals += int64(bits.OnesCount64(m))
	}
	for i := 0; i < n; i++ {
		sum := c.grab()
		ap, bp := c.plane(a, i)[:len(sum)], c.plane(b, i)[:len(sum)]
		for w := range sum {
			m := mask[w]
			av, bv, cv := ap[w], bp[w], carry[w]
			// axb = XOR(a, b)
			g1 := ^(av | bv)
			g2 := ^av        // twice
			g3 := ^bv        // twice
			g4 := ^(g2 | g3) // AND(a, b), twice
			axb := ^(g1 | g4)
			// sum = XOR(axb, cin)
			h1 := ^(axb | cv)
			h2 := ^axb       // twice
			h3 := ^cv        // twice
			h4 := ^(h2 | h3) // AND(axb, cin), twice
			s := ^(h1 | h4)
			// carry = OR(AND(a, b), AND(axb, cin))
			k1 := ^(g4 | h4)
			cy := ^k1
			sum[w], carry[w] = s, cy
			sets += int64(bits.OnesCount64(g1&m) + bits.OnesCount64(axb&m) +
				bits.OnesCount64(h1&m) + bits.OnesCount64(s&m) +
				bits.OnesCount64(k1&m) + bits.OnesCount64(cy&m) +
				2*(bits.OnesCount64(g2&m)+bits.OnesCount64(g3&m)+
					bits.OnesCount64(g4&m)+bits.OnesCount64(h2&m)+
					bits.OnesCount64(h3&m)+bits.OnesCount64(h4&m)))
		}
		out[i] = sum
	}
	out[n] = carry
	evals *= int64(18 * n)
	c.Stats.NOREvals += evals
	c.Stats.Resets += evals
	c.Stats.Sets += sets
	return out
}

// SubBits returns a - b over len(a) planes plus a no-borrow plane.
func (c *SlabCircuit) SubBits(mask []Word, a, b SlabBits) (diff SlabBits, noBorrow []Word) {
	n := len(a)
	nb := c.planes(n)
	for i := 0; i < n; i++ {
		nb[i] = c.NOT(mask, c.plane(b, i))
	}
	ones := c.maskNot(c.zero)
	sum := c.AddBits(mask, a, nb, ones)
	return sum[:n], sum[n]
}

// GEBits returns the a >= b plane for equal-width unsigned operands.
func (c *SlabCircuit) GEBits(mask []Word, a, b SlabBits) []Word {
	_, ge := c.SubBits(mask, a, b)
	return ge
}

// MuxBits selects a (sel=0) or b (sel=1) lane-wise per plane, each plane
// a MUX of 9 gates: OR(AND(NOT sel, a), AND(sel, b)). The gates on sel
// alone (NOT sel twice, and NOT NOT sel) are the same in every plane, so
// their Sets are counted once per word and scaled by the plane count.
func (c *SlabCircuit) MuxBits(mask, sel []Word, a, b SlabBits) SlabBits {
	n := max(len(a), len(b))
	out := c.planes(n)
	var evals, selSets, sets int64
	for w := 0; w < c.w; w++ {
		m, ns := mask[w], ^sel[w]
		evals += int64(bits.OnesCount64(m))
		selSets += int64(2*bits.OnesCount64(ns&m) + bits.OnesCount64(^ns&m))
	}
	for i := range out {
		o := c.grab()
		mask, sel := mask[:len(o)], sel[:len(o)]
		ap, bp := c.plane(a, i)[:len(o)], c.plane(b, i)[:len(o)]
		for w := range o {
			m := mask[w]
			sv, na, nb := sel[w], ^ap[w], ^bp[w]
			and1 := ^(sv | na)  // NOR(NOT NOT sel, NOT a)
			and2 := ^(^sv | nb) // NOR(NOT sel, NOT b)
			r1 := ^(and1 | and2)
			v := ^r1
			o[w] = v
			sets += int64(bits.OnesCount64(na&m) + bits.OnesCount64(and1&m) +
				bits.OnesCount64(nb&m) + bits.OnesCount64(and2&m) +
				bits.OnesCount64(r1&m) + bits.OnesCount64(v&m))
		}
		out[i] = o
	}
	evals *= int64(9 * n)
	c.Stats.NOREvals += evals
	c.Stats.Resets += evals
	c.Stats.Sets += sets + int64(n)*selSets
	return out
}

// ShiftRightBits shifts each lane right by its amount encoded in the sh
// planes (a barrel shifter of MUX stages), ORing shifted-out bits into a
// sticky plane. Lanes whose shift amount is zero pass through unchanged
// with zero sticky, which is what lets divergent callers run the shifter
// once under a mask.
func (c *SlabCircuit) ShiftRightBits(mask []Word, a, sh SlabBits) (out SlabBits, sticky []Word) {
	out = a
	sticky = c.zeroSlab()
	shifted := c.planes(len(a))
	for s := 0; s < len(sh); s++ {
		amount := 1 << uint(s)
		for i := range shifted {
			shifted[i] = c.plane(out, i+amount)
		}
		lost := c.zeroSlab()
		for i := 0; i < amount && i < len(out); i++ {
			lost = c.OR(mask, lost, out[i])
		}
		sticky = c.OR(mask, sticky, c.AND(mask, sh[s], lost))
		out = c.MuxBits(mask, sh[s], out, shifted)
	}
	return out, sticky
}

// ShiftLeftBits shifts each lane left by its amount in sh, dropping
// overflow.
func (c *SlabCircuit) ShiftLeftBits(mask []Word, a, sh SlabBits) SlabBits {
	out := a
	shifted := c.planes(len(a))
	for s := 0; s < len(sh); s++ {
		amount := 1 << uint(s)
		for i := range shifted {
			if i-amount >= 0 {
				shifted[i] = out[i-amount]
			} else {
				shifted[i] = c.zero
			}
		}
		out = c.MuxBits(mask, sh[s], out, shifted)
	}
	return out
}

// MulBits returns the full 2n-plane product of two n-plane unsigned
// operands via gate-level shift-and-add.
func (c *SlabCircuit) MulBits(mask []Word, a, b SlabBits) SlabBits {
	n := len(a)
	if len(b) != n {
		panic("nor: MulBits operands must have equal width")
	}
	acc := c.zeroPlanes(2 * n)
	partial := c.planes(2 * n)
	for i := 0; i < n; i++ {
		for j := range partial {
			partial[j] = c.zero
		}
		for j := 0; j < n; j++ {
			partial[i+j] = c.AND(mask, a[j], b[i])
		}
		sum := c.AddBits(mask, acc, partial, c.zero)
		acc = sum[:2*n]
	}
	return acc
}

// LeadingZeros counts each lane's zero bits above its most significant
// one-bit, as a gate-level priority scan.
func (c *SlabCircuit) LeadingZeros(mask []Word, a SlabBits) SlabBits {
	n := len(a)
	w := 1
	for 1<<uint(w) <= n {
		w++
	}
	count := c.zeroPlanes(w)
	seen := c.zeroSlab()
	for i := n - 1; i >= 0; i-- {
		seen = c.OR(mask, seen, a[i])
		count = c.AddBits(mask, count, nil, c.NOT(mask, seen))[:w]
	}
	return count
}

// ones returns a one-plane vector whose plane is all ones.
func (c *SlabCircuit) ones() SlabBits {
	one := c.planes(1)
	one[0] = c.maskNot(c.zero)
	return one
}

// IncBits returns a+1 per lane over len(a) planes plus carry-out.
func (c *SlabCircuit) IncBits(mask []Word, a SlabBits) SlabBits {
	return c.AddBits(mask, a, c.ones(), c.zero)
}

// OrReduce ORs all planes together per lane.
func (c *SlabCircuit) OrReduce(mask []Word, a SlabBits) []Word {
	v := c.zeroSlab()
	for _, b := range a {
		v = c.OR(mask, v, b)
	}
	return v
}

// AndReduce ANDs all planes together per lane.
func (c *SlabCircuit) AndReduce(mask []Word, a SlabBits) []Word {
	v := c.maskNot(c.zero)
	for _, b := range a {
		v = c.AND(mask, v, b)
	}
	return v
}
