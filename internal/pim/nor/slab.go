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
// and each bit plane is a K-word slab, so one gate evaluation drives K*64
// lanes with a single tight loop over K contiguous words — SIMDRAM's
// observation that bit-serial throughput scales with effective SIMD width,
// applied to the software model. K=1 is the plain one-word bit-sliced
// path; larger K amortizes per-gate bookkeeping (function call, Stats
// update, plane allocation) K-fold.
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
// Memory: plane slabs are bump-allocated from an internal arena that the
// Batch drivers reset between tiles, so slab words are recycled rather
// than reallocated. Plane headers (SlabBits slices) and per-lane host
// slices (exponents, shift amounts, packing buffers) are still heap
// allocated on every tile. Tiles are sized at K*64 lanes — K is chosen so
// a working set of ~200 live planes stays cache-resident (K=8 keeps it
// around 12 KB, far inside L1d; see DefaultSlabWords).

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

// SlabBits is a bit-plane vector over K-word slabs: SlabBits[i] holds bit
// i of every lane, as a slab of K words (lane l lives in word l/64, bit
// l%64). The slabs of one vector are arena-allocated back to back, so
// plane-sequential gate loops walk contiguous memory.
type SlabBits [][]Word

// Clone copies the plane-slab headers (slabs themselves are shared; gates
// never mutate their inputs).
func (s SlabBits) Clone() SlabBits { return append(SlabBits(nil), s...) }

// SlabCircuit evaluates K*64 NOR gates per plane operation and records
// the same Stats the scalar Circuit would for the masked lanes.
type SlabCircuit struct {
	Stats Stats
	K     int

	arena []Word // bump-allocated slab storage, reset per tile
	off   int
	zero  []Word // shared all-zero slab, read-only
}

// NewSlabCircuit returns a circuit with K-word slabs (K*64 lanes).
func NewSlabCircuit(k int) *SlabCircuit {
	if k < 1 {
		panic(fmt.Sprintf("nor: slab width %d must be >= 1", k))
	}
	return &SlabCircuit{K: k, zero: make([]Word, k)}
}

// SlabLanes returns the lane capacity of the circuit.
func (c *SlabCircuit) SlabLanes() int { return c.K * Lanes }

// grab bump-allocates one uninitialized K-word slab. Callers must fully
// overwrite it (every gate does) or use zeroSlab for all-zero planes.
func (c *SlabCircuit) grab() []Word {
	if c.off+c.K > len(c.arena) {
		n := 1024 * c.K
		if n < 2*len(c.arena) {
			n = 2 * len(c.arena)
		}
		c.arena = make([]Word, n)
		c.off = 0
	}
	s := c.arena[c.off : c.off+c.K : c.off+c.K]
	c.off += c.K
	return s
}

// grabZero is grab plus clearing (for planes built up incrementally).
func (c *SlabCircuit) grabZero() []Word {
	s := c.grab()
	for i := range s {
		s[i] = 0
	}
	return s
}

// zeroSlab returns the shared all-zero slab. Read-only: callers must
// never write through it.
func (c *SlabCircuit) zeroSlab() []Word { return c.zero }

// ResetArena recycles all slabs handed out since the last reset. Any
// SlabBits or mask obtained earlier becomes invalid; the Batch drivers
// call this between tiles after extracting host-side results.
func (c *SlabCircuit) ResetArena() { c.off = 0 }

// ---------------------------------------------------------------------------
// Masks and packing (host-side, no gate cost — the scalar path's branch
// predicates and operand moves are free too)
// ---------------------------------------------------------------------------

// SlabMask returns the mask slab selecting the first n of the circuit's
// K*64 lanes.
func (c *SlabCircuit) SlabMask(n int) []Word {
	if n < 0 || n > c.SlabLanes() {
		panic(fmt.Sprintf("nor: lane count %d out of range [0,%d]", n, c.SlabLanes()))
	}
	m := c.grabZero()
	for w := 0; w < c.K && n > 0; w++ {
		take := n
		if take > Lanes {
			take = Lanes
		}
		m[w] = LaneMask(take)
		n -= take
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

// PackSlab builds bit planes from up to K*64 per-lane values.
func (c *SlabCircuit) PackSlab(vals []uint64, width int) SlabBits {
	if len(vals) > c.SlabLanes() {
		panic(fmt.Sprintf("nor: %d lane values exceed %d slab lanes", len(vals), c.SlabLanes()))
	}
	out := make(SlabBits, width)
	for i := range out {
		out[i] = c.grabZero()
	}
	for l, v := range vals {
		w, b := l>>6, uint(l&63)
		for i := 0; i < width; i++ {
			if v>>uint(i)&1 == 1 {
				out[i][w] |= Word(1) << b
			}
		}
	}
	return out
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
		if p[w]>>b&1 == 1 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// ---------------------------------------------------------------------------
// Gate primitives — the cache-blocked inner loops
// ---------------------------------------------------------------------------

func (c *SlabCircuit) nor1(mask, a []Word) []Word {
	out := c.grab()
	var evals, sets int64
	for i := 0; i < c.K; i++ {
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
	var evals, sets int64
	for i := 0; i < c.K; i++ {
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
// gates inside a FullAdder); only the memory traffic changes.

// OR is NOT(NOR(a,b)): 2 gates.
func (c *SlabCircuit) OR(mask, a, b []Word) []Word {
	out := c.grab()
	var evals, sets int64
	for i := 0; i < c.K; i++ {
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
	var evals, sets int64
	for i := 0; i < c.K; i++ {
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
	var evals, sets int64
	for i := 0; i < c.K; i++ {
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

// MUX returns a where sel is 0, b where sel is 1:
// OR(AND(NOT sel, a), AND(sel, b)), 9 gates.
func (c *SlabCircuit) MUX(mask, sel, a, b []Word) []Word {
	out := c.grab()
	var evals, sets int64
	for i := 0; i < c.K; i++ {
		m := mask[i]
		sv, av, bv := sel[i], a[i], b[i]
		n1 := ^sv
		p1 := ^n1
		p2 := ^av
		and1 := ^(p1 | p2)
		q1 := ^sv
		q2 := ^bv
		and2 := ^(q1 | q2)
		r1 := ^(and1 | and2)
		o := ^r1
		out[i] = o
		evals += int64(bits.OnesCount64(m))
		sets += int64(bits.OnesCount64(n1&m) + bits.OnesCount64(p1&m) +
			bits.OnesCount64(p2&m) + bits.OnesCount64(and1&m) +
			bits.OnesCount64(q1&m) + bits.OnesCount64(q2&m) +
			bits.OnesCount64(and2&m) + bits.OnesCount64(r1&m) +
			bits.OnesCount64(o&m))
	}
	c.Stats.NOREvals += 9 * evals
	c.Stats.Resets += 9 * evals
	c.Stats.Sets += sets
	return out
}

// FullAdder returns (sum, carry) of a + b + cin lane-wise: two XORs plus
// the carry network, 18 gates.
func (c *SlabCircuit) FullAdder(mask, a, b, cin []Word) (sum, carry []Word) {
	sum = c.grab()
	carry = c.grab()
	var evals, sets int64
	for i := 0; i < c.K; i++ {
		m := mask[i]
		av, bv, cv := a[i], b[i], cin[i]
		// axb = XOR(a, b)
		g1 := ^(av | bv)
		g2 := ^av
		g3 := ^bv
		g4 := ^(g2 | g3)
		axb := ^(g1 | g4)
		// sum = XOR(axb, cin)
		h1 := ^(axb | cv)
		h2 := ^axb
		h3 := ^cv
		h4 := ^(h2 | h3)
		s := ^(h1 | h4)
		// carry = OR(AND(a, b), AND(axb, cin))
		i1 := ^av
		i2 := ^bv
		and1 := ^(i1 | i2)
		j1 := ^axb
		j2 := ^cv
		and2 := ^(j1 | j2)
		k1 := ^(and1 | and2)
		cy := ^k1
		sum[i], carry[i] = s, cy
		evals += int64(bits.OnesCount64(m))
		sets += int64(bits.OnesCount64(g1&m) + bits.OnesCount64(g2&m) +
			bits.OnesCount64(g3&m) + bits.OnesCount64(g4&m) +
			bits.OnesCount64(axb&m) +
			bits.OnesCount64(h1&m) + bits.OnesCount64(h2&m) +
			bits.OnesCount64(h3&m) + bits.OnesCount64(h4&m) +
			bits.OnesCount64(s&m) +
			bits.OnesCount64(i1&m) + bits.OnesCount64(i2&m) +
			bits.OnesCount64(and1&m) +
			bits.OnesCount64(j1&m) + bits.OnesCount64(j2&m) +
			bits.OnesCount64(and2&m) +
			bits.OnesCount64(k1&m) + bits.OnesCount64(cy&m))
	}
	c.Stats.NOREvals += 18 * evals
	c.Stats.Resets += 18 * evals
	c.Stats.Sets += sets
	return sum, carry
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
// final carry plane.
func (c *SlabCircuit) AddBits(mask []Word, a, b SlabBits, cin []Word) SlabBits {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(SlabBits, n+1)
	carry := cin
	for i := 0; i < n; i++ {
		out[i], carry = c.FullAdder(mask, c.plane(a, i), c.plane(b, i), carry)
	}
	out[n] = carry
	return out
}

// SubBits returns a - b over len(a) planes plus a no-borrow plane.
func (c *SlabCircuit) SubBits(mask []Word, a, b SlabBits) (diff SlabBits, noBorrow []Word) {
	n := len(a)
	nb := make(SlabBits, n)
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

// MuxBits selects a (sel=0) or b (sel=1) lane-wise per plane.
func (c *SlabCircuit) MuxBits(mask, sel []Word, a, b SlabBits) SlabBits {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(SlabBits, n)
	for i := 0; i < n; i++ {
		out[i] = c.MUX(mask, sel, c.plane(a, i), c.plane(b, i))
	}
	return out
}

// ShiftRightBits shifts each lane right by its amount encoded in the sh
// planes (a barrel shifter of MUX stages), ORing shifted-out bits into a
// sticky plane. Lanes whose shift amount is zero pass through unchanged
// with zero sticky, which is what lets divergent callers run the shifter
// once under a mask.
func (c *SlabCircuit) ShiftRightBits(mask []Word, a, sh SlabBits) (out SlabBits, sticky []Word) {
	out = a.Clone()
	sticky = c.zeroSlab()
	for s := 0; s < len(sh); s++ {
		amount := 1 << uint(s)
		shifted := make(SlabBits, len(out))
		for i := range shifted {
			if i+amount < len(out) {
				shifted[i] = out[i+amount]
			} else {
				shifted[i] = c.zero
			}
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
	out := a.Clone()
	for s := 0; s < len(sh); s++ {
		amount := 1 << uint(s)
		shifted := make(SlabBits, len(out))
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
	acc := make(SlabBits, 2*n)
	for i := range acc {
		acc[i] = c.zero
	}
	for i := 0; i < n; i++ {
		partial := make(SlabBits, 2*n)
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
	count := make(SlabBits, w)
	for i := range count {
		count[i] = c.zero
	}
	seen := c.zeroSlab()
	for i := n - 1; i >= 0; i-- {
		seen = c.OR(mask, seen, a[i])
		inc := c.NOT(mask, seen)
		carry := inc
		for j := 0; j < w; j++ {
			count[j], carry = c.FullAdder(mask, count[j], c.zero, carry)
		}
	}
	return count
}

// IncBits returns a+1 per lane over len(a) planes plus carry-out.
func (c *SlabCircuit) IncBits(mask []Word, a SlabBits) SlabBits {
	one := SlabBits{c.maskNot(c.zero)}
	return c.AddBits(mask, a, one, c.zero)
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
