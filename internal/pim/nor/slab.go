package nor

import (
	"fmt"
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
//     lane. The fused composites do not popcount every gate output: each
//     derives its gates' Sets in closed form from a few lane counts (the
//     full adder's 18 gates from |a∨b| and the carry-out count, the
//     MUX's 9 from the value it did not select; see AddBits, MuxBits).
//   - Known planes: where the structure of the computation fixes a
//     plane's gate inputs, the slab does not run those gates. The
//     multiplier's planes that a round's partial product does not reach
//     see a zero partial and a zero carry, and the priority scan's count
//     planes above what the count can hold yet are zero and take no
//     carry. Their outputs (the accumulator unchanged, or zero) are what
//     the gates would produce in every lane; their Evals and Resets are
//     charged as usual and their Sets in closed form (11M − 4|acc| per
//     adder on an accumulator plane, 11M on an all-zero one). The
//     property tests in slab_test.go and slab_prim_test.go enforce values
//     and Stats for K in {1,2,3,4,8}, under prefix and sparse masks.
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
func (c *SlabCircuit) grab() []Word { return c.grabWords(c.w) }

// grabWords bump-allocates n uninitialized words.
func (c *SlabCircuit) grabWords(n int) []Word {
	if c.off+n > len(c.arena) {
		c.arena = make([]Word, max(1024*c.K, 2*len(c.arena), n))
		c.off = 0
	}
	s := c.arena[c.off : c.off+n : c.off+n]
	c.off += n
	return s
}

// slabs bump-allocates a vector of n uninitialized slabs, carved from one
// block of the arena.
func (c *SlabCircuit) slabs(n int) SlabBits {
	out := c.planes(n)
	blk := c.grabWords(n * c.w)
	for i := range out {
		out[i] = blk[i*c.w : (i+1)*c.w : (i+1)*c.w]
	}
	return out
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
// values, one 64-lane word at a time by a bit-matrix transpose that
// computes only the width rows it keeps; lanes past len(vals) read as
// zero.
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
		lanes := vals[min(w*Lanes, len(vals)):min((w+1)*Lanes, len(vals))]
		if width <= Lanes/2 {
			// Level 32 leaves row k < 32 holding the low halves of rows k
			// and k+32, and the rows below are not kept: load them so.
			for j, v := range lanes {
				m[j&31] |= Word(uint32(v)) << (j & 32)
			}
		} else {
			for j, v := range lanes {
				m[j] = Word(v)
			}
			swapBlocks(&m, 32, 0x00000000FFFFFFFF, Lanes)
		}
		transposeKeep(&m, width)
		for i, p := range out {
			p[w] = m[i]
		}
	}
	return out
}

// laneWords is the read-back of one word of up to 32 planes: laneWord
// leaves it one level short of a full transpose, since lane j's value is
// in the low 32 bits of row j or the high ones of row j-32 (lane).
type laneWords [Lanes / 2]Word

// lane returns the value of lane j of the word.
func (m *laneWords) lane(j int) uint32 { return uint32(m[j&31] >> (j & 32)) }

// laneWord reads back word w of up to 32 planes. Only len(s) rows of the
// matrix are nonzero, and the transpose touches no row that is still zero.
func (s SlabBits) laneWord(w int) laneWords {
	var m [Lanes]Word
	for i, p := range s {
		m[i] = p[w]
	}
	transposeLow(&m, len(s))
	return laneWords(m[:Lanes/2])
}

// A 64x64 bit-matrix transpose (bit c of row r moves to bit r of row c)
// turns lane values into bit planes, and back. It runs in six levels:
// level j swaps the off-diagonal j x j blocks of every 2j x 2j block,
// which exchanges bit j of the row index with bit j of the column index.
// The levels commute, so each of the two narrow forms below runs them in
// the order that lets it skip rows; with n the rows it keeps or holds
// rounded up to a power of two, both swap at level j only the blocks
// within the top max(j, n) rows. Both leave level 32 to their callers,
// which do it as they load values or read lanes.

// transposeKeep finishes a transpose whose level 32 is done, for a caller
// that keeps only rows [0, rows): their values equal a full transpose's,
// and the other rows are left unspecified. It runs the levels from j = 16
// down. After level j the levels left only mix rows inside aligned blocks
// of j rows, so a kept row takes its value from the top max(j, n) rows:
// once a level's blocks are no taller than n, the rows from n on never
// reach a kept row again.
func transposeKeep(a *[Lanes]Word, rows int) {
	n := ceilPow2(rows)
	swapBlocks(a, 16, 0x0000FFFF0000FFFF, max(16, n))
	swapBlocks(a, 8, 0x00FF00FF00FF00FF, max(8, n))
	swapBlocks(a, 4, 0x0F0F0F0F0F0F0F0F, max(4, n))
	swapBlocks(a, 2, 0x3333333333333333, max(2, n))
	swapBlocks(a, 1, 0x5555555555555555, n)
}

// transposeLow runs every level but 32 of the transpose of a, whose rows
// from rows on are zero. It runs the levels from j = 1 up: before level j
// only the top max(j, n) rows can be nonzero, and swapping two zero blocks
// changes nothing.
func transposeLow(a *[Lanes]Word, rows int) {
	n := ceilPow2(rows)
	swapBlocks(a, 1, 0x5555555555555555, n)
	swapBlocks(a, 2, 0x3333333333333333, max(2, n))
	swapBlocks(a, 4, 0x0F0F0F0F0F0F0F0F, max(4, n))
	swapBlocks(a, 8, 0x00FF00FF00FF00FF, max(8, n))
	swapBlocks(a, 16, 0x0000FFFF0000FFFF, max(16, n))
}

// swapBlocks is one level of a transpose over the top rows rows of a, a
// multiple of 2j or j itself; it inlines, so j is a constant shift there.
func swapBlocks(a *[Lanes]Word, j int, m Word, rows int) {
	for k := 0; k < rows; k = (k + j + 1) &^ j {
		t := (a[k]>>uint(j) ^ a[(k+j)&(Lanes-1)]) & m
		a[(k+j)&(Lanes-1)] ^= t
		a[k] ^= t << uint(j)
	}
}

// ceilPow2 returns the least power of two at least n, for 1 <= n <= 64.
func ceilPow2(n int) int {
	return 1 << bits.Len(uint(n-1))
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
	c.charge(evals, sets)
	return out
}

// NOT is NOR with one input.
func (c *SlabCircuit) NOT(mask, a []Word) []Word { return c.nor1(mask, a) }

// The composite gates below are FUSED: instead of materializing every
// intermediate NOR output as its own slab (a memory round-trip per gate),
// one loop per composite keeps the whole NOR chain of each word in
// registers and writes only the final plane(s). The gates evaluated — and
// therefore Stats — are exactly the scalar decompositions, intermediate by
// intermediate (including re-evaluated duplicates like the two NOT(a)
// gates inside a full adder); only the memory traffic changes. Sets come
// from a closed form over a few lane counts per word, derived gate by gate
// in each comment (M, A, B: masked lanes, and those with a or b set).

// OR is NOT(NOR(a,b)): 2 gates. Exactly one of the two outputs is 1 in
// every lane, so Sets = M.
func (c *SlabCircuit) OR(mask, a, b []Word) []Word {
	out := c.grab()
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = a[i] | b[i]
	}
	m := laneCount(mask[:len(out)])
	c.charge(2*m, m)
	return out
}

// AND is NOR(NOT a, NOT b): 3 gates, Sets = (M−A) + (M−B) + |a∧b| =
// 2M − |a∨b|.
func (c *SlabCircuit) AND(mask, a, b []Word) []Word {
	out := c.grab()
	mask, a, b = mask[:len(out)], a[:len(out)], b[:len(out)]
	var m, or int
	for i := range out {
		out[i] = a[i] & b[i]
		m += bits.OnesCount64(mask[i])
		or += bits.OnesCount64((a[i] | b[i]) & mask[i])
	}
	c.charge(3*int64(m), int64(2*m-or))
	return out
}

// XOR from five NORs, as in the scalar gate: NOR(a,b) sets M−|a∨b|,
// NOT a and NOT b set M−A and M−B, their NOR (a∧b) sets |a∧b|, and the
// output sets |a∨b|−|a∧b|, so Sets = 3M − A − B.
func (c *SlabCircuit) XOR(mask, a, b []Word) []Word {
	out := c.grab()
	mask, a, b = mask[:len(out)], a[:len(out)], b[:len(out)]
	var m, ab int
	for i := range out {
		out[i] = a[i] ^ b[i]
		m += bits.OnesCount64(mask[i])
		ab += bits.OnesCount64(a[i]&mask[i]) + bits.OnesCount64(b[i]&mask[i])
	}
	c.charge(5*int64(m), int64(3*m-ab))
	return out
}

// charge records evals gate evaluations, each of which pre-resets its
// output cell, and sets outputs switched to 1.
func (c *SlabCircuit) charge(evals, sets int64) {
	c.Stats.NOREvals += evals
	c.Stats.Resets += evals
	c.Stats.Sets += sets
}

// laneCount returns the number of lanes a mask selects.
func laneCount(mask []Word) int64 {
	var n int
	for _, m := range mask {
		n += bits.OnesCount64(m)
	}
	return int64(n)
}

// maskedCount returns the number of masked lanes set in x.
func maskedCount(x, mask []Word) int64 {
	var n int
	for i, m := range mask {
		n += bits.OnesCount64(x[i] & m)
	}
	return int64(n)
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
//
// Sets in closed form. Over the masked lanes of one plane let A, B and C
// count the lanes whose a, b and carry-in are set, G = |a∧b|,
// X = |a⊕b| = A+B−2G and H = |(a⊕b)∧cin|. The adder's gates set:
//
//	XOR(a,b):     NOR(a,b) M−A−B+G, NOT a ×2 2(M−A), NOT b ×2 2(M−B),
//	              AND(a,b) ×2 2G, a⊕b X
//	XOR(a⊕b,cin): NOR M−X−C+H, NOT a⊕b ×2 2(M−X), NOT cin ×2 2(M−C),
//	              AND ×2 2H, sum X+C−2H
//	carry:        NOR(G,H) M−G−H, carry G+H
//
// (the two carry terms never overlap: a∧b forces a⊕b to 0), which sum to
// 11M − 4A − 4B − 2C + 5G + H = 11M − 4|a∨b| + C' − 2C, where C' = G+H
// is the carry-out count and so the next plane's C. Summed over the
// ripple, the carries telescope: Sets = 11Mn − 4Σ|a∨b| − ΣC' − 2C₀ +
// 2C_out, two popcounts a word.
func (c *SlabCircuit) AddBits(mask []Word, a, b SlabBits, cin []Word) SlabBits {
	n := max(len(a), len(b))
	out := c.slabs(n + 1)
	carry := out[n]
	copy(carry, cin)
	mask = mask[:len(carry)]
	cIn := maskedCount(cin, mask)
	cOut := cIn
	var or, cy int64
	for i, sum := range out[:n] {
		ap, bp := c.plane(a, i)[:len(sum)], c.plane(b, i)[:len(sum)]
		var po, pc int
		for w := range sum {
			m, av, bv, cv := mask[w], ap[w], bp[w], carry[w]
			axb := av ^ bv
			co := av&bv | axb&cv
			sum[w], carry[w] = axb^cv, co
			po += bits.OnesCount64((av | bv) & m)
			pc += bits.OnesCount64(co & m)
		}
		or += int64(po)
		cy += int64(pc)
		cOut = int64(pc)
	}
	lanes := laneCount(mask) * int64(n)
	c.charge(18*lanes, 11*lanes-4*or-cy-2*cIn+2*cOut)
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
// a MUX of 9 gates: OR(AND(NOT sel, a), AND(sel, b)). With S = |sel|, the
// gates on sel alone (NOT sel twice, and NOT NOT sel) set 2M − S in every
// plane. The data gates set M−A (NOT a), |¬sel∧a| (first AND), M−B
// (NOT b), |sel∧b| (second AND), and M−V and V (the OR, where V = |out|
// is the sum of the two ANDs): 3M − A − B + V, which is
// 3M − |sel ? a : b|, one popcount a word of the value the MUX did not
// select.
func (c *SlabCircuit) MuxBits(mask, sel []Word, a, b SlabBits) SlabBits {
	n := max(len(a), len(b))
	out := c.slabs(n)
	mask, sel = mask[:c.w], sel[:c.w]
	var other int64
	for i, o := range out {
		ap, bp := c.plane(a, i)[:len(o)], c.plane(b, i)[:len(o)]
		var po int
		for w := range o {
			sv, av, bv := sel[w], ap[w], bp[w]
			o[w] = av&^sv | bv&sv
			po += bits.OnesCount64((av&sv | bv&^sv) & mask[w])
		}
		other += int64(po)
	}
	lanes := laneCount(mask)
	c.charge(9*int64(n)*lanes, int64(n)*(5*lanes-maskedCount(sel, mask))-other)
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
		lost := c.OrReduce(mask, out[:min(amount, len(out))])
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
// operands via gate-level shift-and-add: in round i, n ANDs form the
// partial product a∧b_i, and a 2n-plane ripple add folds it into the
// accumulator at plane i.
//
// Only the planes the partial product reaches run gates. In round i the
// accumulator is below 2^(n+i), so every plane p outside i..i+n is
// already known: below i the partial and the carry are zero, so the sum
// is the accumulator (final from round p on) and the adder's Sets are
// 11M − 4|acc_p|; plane i+n takes the carry-in alone (11M − 2C); above it
// everything is zero (11M). The live planes fuse each partial AND into
// its adder, which sets 2M − |a_j| − |b_i| + |a_j∧b_i| on top of the
// adder's closed form (see AddBits). Evals and Resets stay 3nM + 36nM
// per round.
func (c *SlabCircuit) MulBits(mask []Word, a, b SlabBits) SlabBits {
	n := len(a)
	if len(b) != n {
		panic("nor: MulBits operands must have equal width")
	}
	acc := c.slabs(2 * n)
	for _, p := range acc[:n] {
		clear(p)
	}
	carry := c.grab()
	mask = mask[:len(carry)]
	var sumA int64
	for _, p := range a {
		sumA += maskedCount(p, mask)
	}
	var sets, final int64 // final: Σ|acc_p| over the planes below i
	for i := 0; i < n; i++ {
		bi := b[i][:len(carry)]
		clear(carry)
		var or, cy, pp int
		for j, aj := range a {
			s := acc[i+j]
			aj, bw, mw, cw := aj[:len(s)], bi[:len(s)], mask[:len(s)], carry[:len(s)]
			for w := range s {
				m, av, pv, cv := mw[w], s[w], aj[w]&bw[w], cw[w]
				axb := av ^ pv
				co := av&pv | axb&cv
				s[w], cw[w] = axb^cv, co
				or += bits.OnesCount64((av | pv) & m)
				cy += bits.OnesCount64(co & m)
				pp += bits.OnesCount64(pv & m)
			}
		}
		// The carry out of plane i+n-1 is plane i+n; its old slab becomes
		// the next round's carry scratch.
		acc[i+n], carry = carry, acc[i+n]
		sets += int64(pp-4*or-cy) - int64(n)*maskedCount(bi, mask) - 4*final
		final += maskedCount(acc[i], mask)
	}
	lanes := laneCount(mask) * int64(n)
	c.charge(39*int64(n)*lanes, sets+int64(n)*(24*lanes-sumA))
	return acc
}

// LeadingZeros counts each lane's zero bits above its most significant
// one-bit, as a gate-level priority scan: step k ORs plane n-1-k into
// seen (2 gates), and a ripple of full adders adds NOT seen (1 gate) to
// the count (18 gates a count plane).
//
// Before step k every count is at most k, and after it at most k+1, so
// the count planes from bits.Len(k+1) up stay zero and take no carry:
// they are charged 18M evals and 11M Sets without running gates, and the
// live planes' Sets follow AddBits' closed form with b = 0 (whose carry
// out is zero).
func (c *SlabCircuit) LeadingZeros(mask []Word, a SlabBits) SlabBits {
	n := len(a)
	width := max(1, bits.Len(uint(n)))
	count := c.slabs(width)
	for _, p := range count {
		clear(p)
	}
	seen, carry := c.grabZero(), c.grab()
	mask = mask[:len(seen)]
	var sets int64
	for k := 0; k < n; k++ {
		ak := a[n-1-k][:len(seen)]
		var ns int
		for w := range seen {
			v := seen[w] | ak[w]
			seen[w], carry[w] = v, ^v
			ns += bits.OnesCount64(v & mask[w])
		}
		// OR sets M and NOT seen sets M−|seen|, which is also the ripple's
		// carry-in count C₀, charged −2C₀: together |seen|.
		sets += int64(ns)
		for _, p := range count[:bits.Len(uint(k+1))] {
			p := p[:len(seen)]
			var pa, pc int
			for w := range p {
				av, cv := p[w], carry[w]
				co := av & cv
				p[w], carry[w] = av^cv, co
				pa += bits.OnesCount64(av & mask[w])
				pc += bits.OnesCount64(co & mask[w])
			}
			sets -= int64(4*pa + pc)
		}
	}
	lanes := laneCount(mask) * int64(n)
	c.charge(lanes*int64(3+18*width), sets+lanes*int64(11*width))
	return count
}

// ones returns a one-plane vector whose plane is all ones.
func (c *SlabCircuit) ones() SlabBits {
	one := c.planes(1)
	one[0] = c.maskNot(c.zero)
	return one
}

// OrReduce ORs all planes together per lane: a chain of ORs from zero,
// 2 gates and M Sets each.
func (c *SlabCircuit) OrReduce(mask []Word, a SlabBits) []Word {
	if len(a) == 0 {
		return c.zeroSlab()
	}
	v := c.grab()
	copy(v, a[0])
	for _, p := range a[1:] {
		p = p[:len(v)]
		for w := range v {
			v[w] |= p[w]
		}
	}
	m := laneCount(mask[:len(v)]) * int64(len(a))
	c.charge(2*m, m)
	return v
}

// AndReduce ANDs all planes together per lane: a chain of ANDs from all
// ones, 3 gates and 2M − |v∨b| Sets each (see AND).
func (c *SlabCircuit) AndReduce(mask []Word, a SlabBits) []Word {
	v := c.maskNot(c.zero)
	mask = mask[:len(v)]
	var or int
	for _, p := range a {
		p = p[:len(v)]
		for w := range v {
			or += bits.OnesCount64((v[w] | p[w]) & mask[w])
			v[w] &= p[w]
		}
	}
	m := laneCount(mask) * int64(len(a))
	c.charge(3*m, 2*m-int64(or))
	return v
}
