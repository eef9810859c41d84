package nor

import "math"

// IEEE-754 binary32 addition and multiplication built on the gate-level
// integer blocks of this package. The mantissa datapath — the O(width) and
// O(width^2) serial work that dominates a bit-serial PIM's latency and
// energy (alignment shifts, the 24x24 multiply, the wide adds, leading-zero
// scan, rounding increment) — runs entirely through Circuit's NOR gates.
// Exponent bookkeeping and special-case dispatch (NaN/Inf/zero), eight-bit
// quantities the real hardware resolves in its per-block decoder when
// choosing which micro-sequence to issue, are sequenced by the controller
// here as plain integer reads of gate-extracted fields.
//
// Both operations implement round-to-nearest-even including subnormal
// inputs and outputs, signed zeros, infinities and NaN, and are
// property-tested bit-for-bit against Go's hardware float32 arithmetic.

const (
	expBits   = 8
	fracBits  = 23
	expMask   = 0xFF
	fracMask  = 0x7FFFFF
	quietNaN  = 0x7FC00000
	signShift = 31
)

// unpacked holds the gate-extracted fields of one operand.
type unpacked struct {
	sign  bool
	exp   uint32 // biased exponent field
	frac  uint32 // fraction field
	eAdj  int    // effective exponent: max(exp, 1)
	mant  Bits   // 24-bit significand with hidden bit
	isNaN bool
	isInf bool
	isZer bool
}

func (c *Circuit) unpack(bits uint32) unpacked {
	b := BitsFromUint(uint64(bits), 32)
	var u unpacked
	u.sign = b[signShift]
	expB := b[fracBits : fracBits+expBits]
	fracB := b[:fracBits]
	u.exp = uint32(expB.Uint())
	u.frac = uint32(fracB.Uint())
	expAllOnes := c.AndReduce(expB)
	fracZero := c.NOT(c.OrReduce(fracB))
	expZero := c.NOT(c.OrReduce(expB))
	u.isNaN = expAllOnes && !fracZero
	u.isInf = expAllOnes && fracZero
	u.isZer = expZero && fracZero
	u.eAdj = int(u.exp)
	if u.exp == 0 {
		u.eAdj = 1
	}
	u.mant = make(Bits, 24)
	copy(u.mant, fracB)
	u.mant[23] = !expZero // hidden bit
	return u
}

// pack assembles the final bit pattern from sign, a clamped biased exponent
// eRc >= 1, and the rounded 24/25-bit significand M. It uses the
// carry-propagating encoding bits = ((eRc-1)<<23) + M, which automatically
// promotes mantissa overflow (M = 2^24) and subnormal round-up (M = 2^23
// with eRc = 1) to the next exponent. The addition runs through the gate
// adder.
func (c *Circuit) pack(sign bool, eRc int, m Bits) uint32 {
	e := BitsFromUint(uint64(eRc-1), 10)
	// bits = (e << 23) + m over 33 bits (wide enough that an exponent past
	// 255 cannot alias back into the field).
	shifted := make(Bits, 33)
	copy(shifted[23:], e)
	sum := c.AddBits(shifted, m, false)
	full := sum[:33].Uint()
	var v uint32
	if full>>23 >= expMask { // exponent overflow -> infinity
		v = expMask << 23
	} else {
		v = uint32(full)
	}
	if sign {
		v |= 1 << signShift
	}
	return v
}

// roundRNE rounds the 24-bit significand m (LSB-first) given guard and
// sticky, returning a 25-bit result (possible carry out). The increment is
// a gate-level add.
func (c *Circuit) roundRNE(m Bits, guard, sticky bool) Bits {
	lsb := m[0]
	roundUp := c.AND(guard, c.OR(sticky, lsb))
	inc := make(Bits, 1)
	inc[0] = roundUp
	return c.AddBits(m, inc, false)
}

// MulFP32 multiplies two float32 bit patterns.
func (c *Circuit) MulFP32(a, b uint32) uint32 {
	ua, ub := c.unpack(a), c.unpack(b)
	sign := c.XOR(ua.sign, ub.sign)
	switch {
	case ua.isNaN || ub.isNaN:
		return quietNaN
	case ua.isInf || ub.isInf:
		if ua.isZer || ub.isZer {
			return quietNaN // inf * 0
		}
		v := uint32(expMask << 23)
		if sign {
			v |= 1 << signShift
		}
		return v
	}

	// 24x24 -> 48-bit gate-level product.
	p := c.MulBits(ua.mant, ub.mant)

	// Normalize: align the leading one to bit 47.
	lzBits := c.LeadingZeros(p)
	lz := int(lzBits.Uint())
	if lz == 48 { // zero product
		if sign {
			return 1 << signShift
		}
		return 0
	}
	pn := c.ShiftLeftBits(p, lzBits)
	// eR = eA + eB - lz - 126 (derivation: P's MSB at 47-lz, target
	// exponent eR satisfies eR = (47-lz) + eA + eB - 173).
	eR := ua.eAdj + ub.eAdj - lz - 126

	m := pn[24:48].Clone() // 24-bit significand
	guard := pn[23]
	sticky := c.OrReduce(pn[:23])

	// Subnormal: shift right until the exponent reaches 1.
	if eR < 1 {
		d := 1 - eR
		if d > 31 {
			d = 31
		}
		ext := make(Bits, 25)
		copy(ext[1:], m)
		ext[0] = guard
		shifted, lost := c.ShiftRightBits(ext, BitsFromUint(uint64(d), 5))
		sticky = c.OR(sticky, lost)
		m = shifted[1:25].Clone()
		guard = shifted[0]
		eR = 1
	}

	rounded := c.roundRNE(m, guard, sticky)
	return c.pack(sign, eR, rounded[:25])
}

// AddFP32 adds two float32 bit patterns.
func (c *Circuit) AddFP32(a, b uint32) uint32 {
	ua, ub := c.unpack(a), c.unpack(b)
	switch {
	case ua.isNaN || ub.isNaN:
		return quietNaN
	case ua.isInf && ub.isInf:
		if ua.sign != ub.sign {
			return quietNaN // inf - inf
		}
		return a
	case ua.isInf:
		return a
	case ub.isInf:
		return b
	}

	// Order operands by magnitude with a gate comparison of the low 31
	// bits (exponent-major order makes this a plain unsigned compare).
	magA := BitsFromUint(uint64(a&0x7FFFFFFF), 31)
	magB := BitsFromUint(uint64(b&0x7FFFFFFF), 31)
	aGE := c.GEBits(magA, magB)
	ul, us := ua, ub // large, small
	if !aGE {
		ul, us = ub, ua
	}

	// Align: extend significands with 3 GRS bits; shift the small one right
	// by the exponent difference.
	d := ul.eAdj - us.eAdj
	mL := make(Bits, 28)
	copy(mL[3:27], ul.mant)
	mS := make(Bits, 28)
	copy(mS[3:27], us.mant)
	var sticky bool
	if d > 0 {
		sh := d
		if sh > 31 {
			sh = 31
		}
		var lost bool
		mS, lost = c.ShiftRightBits(mS, BitsFromUint(uint64(sh), 5))
		sticky = c.OR(sticky, lost)
	}

	sameSign := !c.XOR(ul.sign, us.sign)
	var r Bits
	if sameSign {
		r = c.AddBits(mL, mS, false) // 29 bits
	} else {
		// |L| >= |S| so the subtraction cannot borrow. The alignment
		// sticky represents bits of S below the window: account for them
		// by borrowing one ULP when nonzero (S was truncated toward zero,
		// so the true difference is smaller).
		diff, _ := c.SubBits(mL, mS)
		if sticky {
			one := BitsFromUint(1, 1)
			diff, _ = c.SubBits(diff, one)
			// The borrowed ULP position now carries the inverted sticky
			// residue; keep sticky set for rounding.
		}
		r = make(Bits, 29)
		copy(r, diff)
	}

	if !c.OrReduce(r) && !sticky {
		// Exact cancellation: IEEE round-to-nearest gives +0, except that
		// (-x) + (-x-compensating)=-0 only when both operands are -0.
		if ua.isZer && ub.isZer && ua.sign && ub.sign {
			return 1 << signShift
		}
		return 0
	}

	// Normalize: align the leading one to bit 26 (significand window
	// bits 3..26, GRS at 2..0).
	lzBits := c.LeadingZeros(r)
	lz := int(lzBits.Uint())
	k := 28 - lz // index of leading one
	eR := ul.eAdj + k - 26

	if k > 26 {
		// Shift right by k-26 (at most 2), folding into sticky.
		sh := k - 26
		var lost bool
		r, lost = c.ShiftRightBits(r, BitsFromUint(uint64(sh), 2))
		sticky = c.OR(sticky, lost)
	} else if k < 26 {
		// Shift left to normalize, but never push the exponent below 1:
		// if eR = eL + k - 26 < 1, shift only by eL-1 and leave the result
		// subnormal at exponent 1 (left shifts introduce zeros, so guard
		// and the alignment sticky are unaffected — massive cancellation
		// only occurs when the alignment shift was <= 1, in which case
		// sticky is clean).
		sh := 26 - k
		if eR < 1 {
			sh = ul.eAdj - 1
			if sh < 0 {
				sh = 0
			}
			eR = 1
		}
		r = c.ShiftLeftBits(r, BitsFromUint(uint64(sh), 5))
	}

	// Normalization leaves eR >= 1: k > 26 gives eR > eL >= 1, k = 26
	// gives eL, and k < 26 clamps to 1. No subnormal shift follows.
	m := r[3:27].Clone()
	guard := r[2]
	sticky = c.OR(sticky, c.OR(r[1], r[0]))

	rounded := c.roundRNE(m, guard, sticky)
	return c.pack(ul.sign, eR, rounded[:25])
}

// MulFloat32 is a convenience wrapper over float32 values.
func (c *Circuit) MulFloat32(a, b float32) float32 {
	return math.Float32frombits(c.MulFP32(math.Float32bits(a), math.Float32bits(b)))
}

// AddFloat32 is a convenience wrapper over float32 values.
func (c *Circuit) AddFloat32(a, b float32) float32 {
	return math.Float32frombits(c.AddFP32(math.Float32bits(a), math.Float32bits(b)))
}
