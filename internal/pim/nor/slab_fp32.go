package nor

// Slab-parallel IEEE-754 binary32 addition and multiplication: up to K*64
// independent operand pairs ride the lanes of each gate evaluation. The
// control flow of the scalar datapath in fp32.go — special-case dispatch,
// operand swap, alignment, normalization, subnormal handling — is
// data-dependent per lane, so every branch becomes a lane mask: the gates
// of a branch run once, accounted only for the lanes that take it, exactly
// as the scalar path would per lane. Host-side bookkeeping (exponent
// arithmetic, branch predicates read from gate outputs) stays host-side
// here too, and costs no gates in either path.
//
// Results and accumulated Stats are bit-identical to running the scalar
// AddFP32/MulFP32 once per lane, at every slab width; slab_test.go
// property-tests both claims against random inputs including subnormals,
// NaN and Inf.
//
// The Batch entry points process arbitrary-length operand vectors in
// tiles of up to K*64 lanes. Each tile runs over only the words its lanes
// occupy (a ragged last tile is simply narrower) and recycles the
// circuit's slab and header arenas, so the live planes stay
// cache-resident and a warm circuit allocates nothing.

// unpackedSlab holds the gate-extracted fields of one operand vector.
type unpackedSlab struct {
	bits  SlabBits // the 32 packed planes of the operands
	sign  []Word
	isNaN []Word
	isInf []Word
	isZer []Word
	mant  SlabBits // 24 planes: significand with hidden bit
}

// effExp is a float32 bit pattern's effective exponent, max(exp, 1),
// host-read as in the scalar unpack.
func effExp(x uint32) int {
	if e := int(x >> fracBits & expMask); e != 0 {
		return e
	}
	return 1
}

func (c *SlabCircuit) unpackSlab(mask []Word, v []uint32) unpackedSlab {
	b := packSlab(c, v, 32)
	var u unpackedSlab
	u.bits = b
	u.sign = b[signShift]
	expB := b[fracBits : fracBits+expBits]
	fracB := b[:fracBits]
	expAllOnes := c.AndReduce(mask, expB)
	fracZero := c.NOT(mask, c.OrReduce(mask, fracB))
	expZero := c.NOT(mask, c.OrReduce(mask, expB))
	u.isNaN = c.maskAndNot(expAllOnes, fracZero)
	u.isInf = c.maskAnd(expAllOnes, fracZero)
	u.isZer = c.maskAnd(expZero, fracZero)
	u.mant = c.planes(24)
	copy(u.mant, fracB)
	u.mant[23] = c.maskNot(expZero) // hidden bit
	return u
}

// packSlabOut assembles final bit patterns for the masked lanes into out,
// using the same carry-propagating ((eRc-1)<<23) + M gate add as the
// scalar pack.
func (c *SlabCircuit) packSlabOut(mask, sign []Word, eR []int, m SlabBits, out []uint32) {
	eVals := c.vals[:len(eR)]
	for l := range eR {
		eVals[l] = 0
		if maskBit(mask, l) {
			eVals[l] = uint64(eR[l] - 1)
		}
	}
	e := packSlab(c, eVals, 10)
	shifted := c.zeroPlanes(33)
	copy(shifted[23:], e)
	sum := c.AddBits(mask, shifted, m, c.zero)
	// The exponent overflows to infinity where bits 23..32 of the sum
	// reach expMask: bit 31 or 32 set, or bits 23..30 all set. Below that
	// the sum fits in its low 31 planes, the only ones read back. Like the
	// scalar pack's comparison, this is host-side.
	ovf := c.grab()
	for w := range ovf {
		all := ^Word(0)
		for _, p := range sum[fracBits:31] {
			all &= p[w]
		}
		ovf[w] = sum[31][w] | sum[32][w] | all
	}
	low := sum[:31]
	var lanes laneWords
	for l := range eR {
		if l&63 == 0 {
			lanes = low.laneWord(l >> 6)
		}
		if !maskBit(mask, l) {
			continue
		}
		v := lanes.lane(l & 63)
		if maskBit(ovf, l) { // exponent overflow -> infinity
			v = expMask << 23
		}
		if maskBit(sign, l) {
			v |= 1 << signShift
		}
		out[l] = v
	}
}

// roundRNESlab rounds the 24-plane significand given guard and sticky
// planes, returning 25 planes (possible carry out).
func (c *SlabCircuit) roundRNESlab(mask []Word, m SlabBits, guard, sticky []Word) SlabBits {
	lsb := m[0]
	inc := c.planes(1)
	inc[0] = c.AND(mask, guard, c.OR(mask, sticky, lsb))
	return c.AddBits(mask, m, inc, c.zero)
}

// selSlabPlanes merges two plane vectors lane-wise: x where sel, y
// elsewhere (host data movement, no gate cost — the lane-wise form of the
// scalar operand swap).
func (c *SlabCircuit) selSlabPlanes(sel []Word, x, y SlabBits) SlabBits {
	out := c.planes(max(len(x), len(y)))
	for i := range out {
		out[i] = c.selWord(sel, c.plane(x, i), c.plane(y, i))
	}
	return out
}

// selWord is the single-plane host merge: x where sel, y elsewhere.
func (c *SlabCircuit) selWord(sel, x, y []Word) []Word {
	o := c.grab()
	for w := range o {
		o[w] = x[w]&sel[w] | y[w]&^sel[w]
	}
	return o
}

// mulTile multiplies one tile of lanes; startTile has sized the slabs.
func (c *SlabCircuit) mulTile(a, b, out []uint32) {
	n := len(a)
	active := c.SlabMask(n)
	ua := c.unpackSlab(active, a)
	ub := c.unpackSlab(active, b)
	sign := c.XOR(active, ua.sign, ub.sign)

	resolved := c.grabZero()
	for l := 0; l < n; l++ {
		switch {
		case maskBit(ua.isNaN, l) || maskBit(ub.isNaN, l):
			out[l] = quietNaN
			setMaskBit(resolved, l)
		case maskBit(ua.isInf, l) || maskBit(ub.isInf, l):
			if maskBit(ua.isZer, l) || maskBit(ub.isZer, l) {
				out[l] = quietNaN // inf * 0
			} else {
				v := uint32(expMask << 23)
				if maskBit(sign, l) {
					v |= 1 << signShift
				}
				out[l] = v
			}
			setMaskBit(resolved, l)
		}
	}
	live := c.maskAndNot(active, resolved)
	if maskEmpty(live) {
		return
	}

	// 24x24 -> 48-plane gate-level product and normalization scan.
	p := c.MulBits(live, ua.mant, ub.mant)
	lzPl := c.LeadingZeros(live, p)
	eR := c.er[:n]
	var lzs laneWords
	for l := 0; l < n; l++ {
		if l&63 == 0 {
			lzs = lzPl.laneWord(l >> 6)
		}
		lz := int(lzs.lane(l & 63))
		eR[l] = effExp(a[l]) + effExp(b[l]) - lz - 126
		if maskBit(live, l) && lz == 48 { // zero product
			out[l] = 0
			if maskBit(sign, l) {
				out[l] = 1 << signShift
			}
			clearMaskBit(live, l)
		}
	}
	if maskEmpty(live) {
		return
	}

	pn := c.ShiftLeftBits(live, p, lzPl)
	m := pn[24:48]
	guard := pn[23]
	sticky := c.OrReduce(live, pn[:23])

	// Subnormal lanes: shift right until the exponent reaches 1. Lanes
	// with a zero shift amount pass through the masked shifter unchanged.
	subM := c.grabZero()
	anySub := false
	dVals := c.vals[:n]
	for l := 0; l < n; l++ {
		dVals[l] = 0
		if maskBit(live, l) && eR[l] < 1 {
			dVals[l] = uint64(min(1-eR[l], 31))
			setMaskBit(subM, l)
			anySub = true
			eR[l] = 1
		}
	}
	if anySub {
		ext := c.planes(25)
		copy(ext[1:], m)
		ext[0] = guard
		shifted, lost := c.ShiftRightBits(subM, ext, c.PackSlab(dVals, 5))
		sticky = c.OR(subM, sticky, lost)
		m = shifted[1:25]
		guard = shifted[0]
	}

	rounded := c.roundRNESlab(live, m, guard, sticky)
	c.packSlabOut(live, sign, eR, rounded[:25], out)
}

// addTile adds one tile of lanes; startTile has sized the slabs.
func (c *SlabCircuit) addTile(a, b, out []uint32) {
	n := len(a)
	active := c.SlabMask(n)
	ua := c.unpackSlab(active, a)
	ub := c.unpackSlab(active, b)

	resolved := c.grabZero()
	for l := 0; l < n; l++ {
		switch {
		case maskBit(ua.isNaN, l) || maskBit(ub.isNaN, l):
			out[l] = quietNaN
			setMaskBit(resolved, l)
		case maskBit(ua.isInf, l) && maskBit(ub.isInf, l):
			if maskBit(ua.sign, l) != maskBit(ub.sign, l) {
				out[l] = quietNaN // inf - inf
			} else {
				out[l] = a[l]
			}
			setMaskBit(resolved, l)
		case maskBit(ua.isInf, l):
			out[l] = a[l]
			setMaskBit(resolved, l)
		case maskBit(ub.isInf, l):
			out[l] = b[l]
			setMaskBit(resolved, l)
		}
	}
	live := c.maskAndNot(active, resolved)
	if maskEmpty(live) {
		return
	}

	// Order operands by magnitude with a gate comparison of the low 31
	// bits (the packed operands' own planes).
	aGE := c.GEBits(live, ua.bits[:31], ub.bits[:31])

	mantL := c.selSlabPlanes(aGE, ua.mant, ub.mant)
	mantS := c.selSlabPlanes(aGE, ub.mant, ua.mant)
	signL := c.selWord(aGE, ua.sign, ub.sign)
	signS := c.selWord(aGE, ub.sign, ua.sign)

	// Align: 3 GRS planes below the significands; shift the small operand
	// right by the per-lane exponent difference.
	mL := c.zeroPlanes(28)
	mS := c.zeroPlanes(28)
	copy(mL[3:27], mantL)
	copy(mS[3:27], mantS)
	sticky := c.zeroSlab()
	dPos := c.grabZero()
	anyD := false
	eL := c.el[:n]
	shVals := c.vals[:n]
	for l := 0; l < n; l++ {
		el, es := effExp(a[l]), effExp(b[l])
		if !maskBit(aGE, l) {
			el, es = es, el
		}
		eL[l] = el
		shVals[l] = 0
		if maskBit(live, l) && el > es {
			shVals[l] = uint64(min(el-es, 31))
			setMaskBit(dPos, l)
			anyD = true
		}
	}
	if anyD {
		var lost []Word
		mS, lost = c.ShiftRightBits(dPos, mS, c.PackSlab(shVals, 5))
		sticky = c.OR(dPos, sticky, lost)
	}

	sameSign := c.maskNot(c.XOR(live, signL, signS))
	addM := c.maskAnd(live, sameSign)
	subM := c.maskAndNot(live, sameSign)

	r := c.zeroPlanes(29)
	if !maskEmpty(addM) {
		sum := c.AddBits(addM, mL, mS, c.zero)
		for i := range r {
			r[i] = c.maskAnd(sum[i], addM)
		}
	}
	if !maskEmpty(subM) {
		// |L| >= |S|: no borrow. Truncated alignment bits borrow one ULP.
		diff, _ := c.SubBits(subM, mL, mS)
		stickySub := c.maskAnd(subM, sticky)
		if !maskEmpty(stickySub) {
			d2, _ := c.SubBits(stickySub, diff, c.ones())
			for i := range diff {
				diff[i] = c.selWord(stickySub, d2[i], diff[i])
			}
		}
		for i := 0; i < 28; i++ {
			r[i] = c.maskOr(r[i], c.maskAnd(diff[i], subM))
		}
	}

	// Exact cancellation lanes.
	orr := c.OrReduce(live, r)
	for l := 0; l < n; l++ {
		if !maskBit(live, l) || maskBit(orr, l) || maskBit(sticky, l) {
			continue
		}
		out[l] = 0
		if maskBit(ua.isZer, l) && maskBit(ub.isZer, l) &&
			maskBit(ua.sign, l) && maskBit(ub.sign, l) {
			out[l] = 1 << signShift // (-0) + (-0)
		}
		clearMaskBit(live, l)
	}
	if maskEmpty(live) {
		return
	}

	// Normalize: per-lane leading-one position decides right shift (by at
	// most 2), left shift (clamped so the exponent never drops below 1),
	// or none; the two masked barrel shifts leave other lanes untouched.
	lzPl := c.LeadingZeros(live, r)
	eR := c.er[:n]
	kGT := c.grabZero()
	kLT := c.grabZero()
	anyGT, anyLT := false, false
	shGT := c.vals[:n]
	var lzs laneWords
	for l := 0; l < n; l++ {
		if l&63 == 0 {
			lzs = lzPl.laneWord(l >> 6)
		}
		shGT[l] = 0
		if !maskBit(live, l) {
			continue
		}
		k := 28 - int(lzs.lane(l&63))
		eR[l] = eL[l] + k - 26
		if k > 26 {
			shGT[l] = uint64(k - 26)
			setMaskBit(kGT, l)
			anyGT = true
		} else if k < 26 {
			if eR[l] < 1 {
				eR[l] = 1
			}
			setMaskBit(kLT, l)
			anyLT = true
		}
	}
	if anyGT {
		var lost []Word
		r, lost = c.ShiftRightBits(kGT, r, c.PackSlab(shGT, 2))
		sticky = c.OR(kGT, sticky, lost)
	}
	if anyLT {
		// A left-shifted lane moves by 26-k, or by eL-1 when that would
		// take its exponent below 1; eR = eL+k-26 or 1 makes both eL-eR.
		shLT := c.vals[:n]
		for l := 0; l < n; l++ {
			shLT[l] = 0
			if maskBit(kLT, l) {
				shLT[l] = uint64(eL[l] - eR[l])
			}
		}
		r = c.ShiftLeftBits(kLT, r, c.PackSlab(shLT, 5))
	}

	// As in Circuit.AddFP32, normalization leaves every eR >= 1, so no
	// subnormal shift follows.
	m := r[3:27]
	guard := r[2]
	sticky = c.OR(live, sticky, c.OR(live, r[1], r[0]))

	rounded := c.roundRNESlab(live, m, guard, sticky)
	c.packSlabOut(live, signL, eR, rounded[:25], out)
}

// ---------------------------------------------------------------------------
// Batch drivers: arbitrary-length operand vectors in cache-blocked tiles
// ---------------------------------------------------------------------------

// MulFP32Batch multiplies len(out) float32 bit-pattern pairs in tiles of
// up to K*64 lanes (the arenas reset between tiles, so slab words and
// plane headers are reused from one tile to the next).
func (c *SlabCircuit) MulFP32Batch(a, b, out []uint32) { c.batch(a, b, out, true) }

// AddFP32Batch adds len(out) float32 bit-pattern pairs in tiles of up to
// K*64 lanes.
func (c *SlabCircuit) AddFP32Batch(a, b, out []uint32) { c.batch(a, b, out, false) }

func (c *SlabCircuit) batch(a, b, out []uint32, mul bool) {
	n := len(out)
	if len(a) != n || len(b) != n {
		panic("nor: batch operand and output lengths differ")
	}
	tile := c.SlabLanes()
	for lo := 0; lo < n; lo += tile {
		hi := min(lo+tile, n)
		c.startTile(hi - lo)
		if mul {
			c.mulTile(a[lo:hi], b[lo:hi], out[lo:hi])
		} else {
			c.addTile(a[lo:hi], b[lo:hi], out[lo:hi])
		}
	}
	c.ResetArena()
}
