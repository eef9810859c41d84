package nor

// Gate-level integer datapath blocks. Everything here is built from
// Circuit's NOR primitive; the host-side Go control flow only sequences
// micro-operations (as the PIM's central controller and per-block decoders
// do in hardware) — every data bit flows through NOR gates.

// AddBits returns a + b (+ cin) over max(len(a), len(b)) bits plus a final
// carry bit appended as the MSB. Inputs of different lengths are
// zero-extended.
func (c *Circuit) AddBits(a, b Bits, cin bool) Bits {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Bits, n+1)
	carry := cin
	for i := 0; i < n; i++ {
		var ab, bb bool
		if i < len(a) {
			ab = a[i]
		}
		if i < len(b) {
			bb = b[i]
		}
		out[i], carry = c.FullAdder(ab, bb, carry)
	}
	out[n] = carry
	return out
}

// SubBits returns a - b over len(a) bits plus a borrow-free flag: the MSB
// of the result is the carry-out (true means a >= b when both are treated
// as unsigned of equal width).
func (c *Circuit) SubBits(a, b Bits) (diff Bits, noBorrow bool) {
	n := len(a)
	nb := make(Bits, n)
	for i := 0; i < n; i++ {
		var bb bool
		if i < len(b) {
			bb = b[i]
		}
		nb[i] = c.NOT(bb)
	}
	sum := c.AddBits(a, nb, true)
	return sum[:n], sum[n]
}

// GEBits returns a >= b for equal-width unsigned operands.
func (c *Circuit) GEBits(a, b Bits) bool {
	_, ge := c.SubBits(a, b)
	return ge
}

// MuxBits selects a (sel=false) or b (sel=true) element-wise; operands are
// zero-extended to the longer length.
func (c *Circuit) MuxBits(sel bool, a, b Bits) Bits {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(Bits, n)
	for i := 0; i < n; i++ {
		var ab, bb bool
		if i < len(a) {
			ab = a[i]
		}
		if i < len(b) {
			bb = b[i]
		}
		out[i] = c.MUX(sel, ab, bb)
	}
	return out
}

// ShiftRightBits shifts a right by the unsigned amount encoded in sh (a
// barrel shifter built from MUX stages). Bits shifted out are ORed into a
// sticky bit, returned alongside the shifted value — exactly what IEEE
// rounding needs.
func (c *Circuit) ShiftRightBits(a Bits, sh Bits) (out Bits, sticky bool) {
	out = a.Clone()
	sticky = false
	for s := 0; s < len(sh); s++ {
		amount := 1 << uint(s)
		shifted := make(Bits, len(out))
		var lost bool
		for i := range shifted {
			if i+amount < len(out) {
				shifted[i] = out[i+amount]
			}
		}
		for i := 0; i < amount && i < len(out); i++ {
			lost = c.OR(lost, out[i])
		}
		// If this stage is active, adopt the shifted value and fold the
		// lost bits into sticky.
		sticky = c.OR(sticky, c.AND(sh[s], lost))
		out = c.MuxBits(sh[s], out, shifted)
	}
	return out, sticky
}

// ShiftLeftBits shifts a left by the amount in sh, dropping overflow.
func (c *Circuit) ShiftLeftBits(a Bits, sh Bits) Bits {
	out := a.Clone()
	for s := 0; s < len(sh); s++ {
		amount := 1 << uint(s)
		shifted := make(Bits, len(out))
		for i := range shifted {
			if i-amount >= 0 {
				shifted[i] = out[i-amount]
			}
		}
		out = c.MuxBits(sh[s], out, shifted)
	}
	return out
}

// MulBits returns the full 2n-bit product of two n-bit unsigned operands,
// via gate-level shift-and-add (the crossbar's sequential NOR multiply).
func (c *Circuit) MulBits(a, b Bits) Bits {
	n := len(a)
	if len(b) != n {
		panic("nor: MulBits operands must have equal width")
	}
	acc := make(Bits, 2*n)
	for i := 0; i < n; i++ {
		// partial = (a AND b[i]) << i
		partial := make(Bits, 2*n)
		for j := 0; j < n; j++ {
			partial[i+j] = c.AND(a[j], b[i])
		}
		sum := c.AddBits(acc, partial, false)
		acc = sum[:2*n]
	}
	return acc
}

// LeadingZeros counts the number of zero bits above the most significant
// one-bit of a. Implemented as a gate-level priority scan.
func (c *Circuit) LeadingZeros(a Bits) Bits {
	n := len(a)
	// width of the count
	w := 1
	for 1<<uint(w) <= n {
		w++
	}
	count := make(Bits, w)
	for i := range count {
		count[i] = false
	}
	seen := false // becomes true once a one-bit has been found (scanning MSB down)
	for i := n - 1; i >= 0; i-- {
		seen = c.OR(seen, a[i])
		// add NOT(seen) to count
		inc := c.NOT(seen)
		carry := inc
		for j := 0; j < w; j++ {
			count[j], carry = c.FullAdder(count[j], false, carry)
		}
	}
	return count
}

// IncBits returns a+1 over len(a) bits plus carry-out as the MSB.
func (c *Circuit) IncBits(a Bits) Bits {
	return c.AddBits(a, BitsFromUint(1, 1), false)
}

// OrReduce ORs all bits together.
func (c *Circuit) OrReduce(a Bits) bool {
	var v bool
	for _, b := range a {
		v = c.OR(v, b)
	}
	return v
}

// AndReduce ANDs all bits together.
func (c *Circuit) AndReduce(a Bits) bool {
	v := true
	for _, b := range a {
		v = c.AND(v, b)
	}
	return v
}
