package xbar

import (
	"math"
	"math/rand"
	"testing"

	"wavepim/internal/params"
	"wavepim/internal/pim/fault"
)

// refBlock is the naive per-cell model of a Block: a plain [row][word]
// array, every kernel written as the obvious loop over rows in ascending
// order, every write through the same fault hook. The Block's kernels may
// store and walk their cells however they like, but must stay
// indistinguishable from this model.
type refBlock struct {
	cells  [Rows][WordsPerRow]uint32
	buf    [WordsPerRow]uint32
	st     Stats
	faults *fault.BlockFaults
}

func (m *refBlock) store(r, o int, v uint32) {
	if m.faults != nil {
		v = m.faults.Store(r, o, v)
	}
	m.cells[r][o] = v
}

func (m *refBlock) arith(op ArithOp, rs, rc, d, s, s2 int) {
	steps := int64(params.NORStepsFPAdd32)
	if op == OpMul {
		steps = params.NORStepsFPMul32
	}
	for r := rs; r < rs+rc; r++ {
		a := math.Float32frombits(m.cells[r][s])
		c := math.Float32frombits(m.cells[r][s2])
		var v float32
		switch op {
		case OpAdd:
			v = a + c
		case OpMul:
			v = a * c
		case OpSub:
			v = a - c
		}
		m.store(r, d, math.Float32bits(v))
	}
	if op == OpMul {
		m.st.MulOps += int64(rc)
	} else {
		m.st.AddOps += int64(rc)
	}
	m.st.NORSteps += steps
	m.st.BusySec += float64(steps) * params.TNORSeconds
	m.st.EnergyJ += float64(steps) * params.EnergyPerNORStep * float64(rc)
}

func (m *refBlock) groupBcast(rs, rc, srcOff, dstOff, stride, size, idx int) {
	end := rs + rc
	for r := rs; r < end; r++ {
		rel := r - rs
		group := rs + rel/(stride*size)*(stride*size)
		src := group + rel%stride + idx*stride
		if src < end {
			m.store(r, dstOff, m.cells[src][srcOff])
		}
	}
	m.st.CopiedRows += int64(rc)
	m.st.BusySec += params.GroupBcastLatencySec
	m.st.EnergyJ += params.GroupBcastEnergyJ
}

func (m *refBlock) pattern(base, rs, rc, srcOff, dstOff, stride, size int) {
	for r := rs; r < rs+rc; r++ {
		m.store(r, dstOff, m.cells[base+((r-rs)/stride)%size][srcOff])
	}
	m.st.CopiedRows += int64(rc)
	m.st.BusySec += params.GroupBcastLatencySec
	m.st.EnergyJ += params.GroupBcastEnergyJ
}

// broadcast models the row drivers: without an injector each row receives
// the source words as one row write (so a source row inside the range sees
// its own words as they were before that write); with one, every word is a
// separate write reading the source row as it stands.
func (m *refBlock) broadcast(srcRow, rs, rc, srcOff, dstOff, wc int) {
	for r := rs; r < rs+rc; r++ {
		if m.faults == nil {
			var words [WordsPerRow]uint32
			copy(words[:wc], m.cells[srcRow][srcOff:srcOff+wc])
			for w := 0; w < wc; w++ {
				m.store(r, dstOff+w, words[w])
			}
			continue
		}
		for w := 0; w < wc; w++ {
			m.store(r, dstOff+w, m.cells[srcRow][srcOff+w])
		}
	}
	m.st.CopiedRows += int64(rc)
	m.st.BusySec += params.BlockRowReadLatency + float64(rc)*params.BlockRowWriteLatency
	m.st.EnergyJ += params.RowBufferReadEnergyJ + float64(rc)*params.RowBufferWriteEnergyJ
}

func (m *refBlock) readRow(r int) {
	m.buf = m.cells[r]
	m.st.RowReads++
	m.st.BusySec += params.BlockRowReadLatency
	m.st.EnergyJ += params.RowBufferReadEnergyJ
}

func (m *refBlock) writeRow(r int) {
	for o, v := range m.buf {
		m.store(r, o, v)
	}
	m.st.RowWrites++
	m.st.BusySec += params.BlockRowWriteLatency
	m.st.EnergyJ += params.RowBufferWriteEnergyJ
}

// kernelRange draws a row range that crosses 32-row boundaries often, is
// sometimes empty, and sometimes ends at the last row.
func kernelRange(rng *rand.Rand) (start, count int) {
	count = rng.Intn(300)
	if rng.Intn(4) == 0 {
		return Rows - count, count
	}
	return rng.Intn(256), count
}

// randWord draws a cell value: mostly ordinary floats, sometimes raw bit
// patterns (NaN, Inf, subnormals).
func randWord(rng *rand.Rand) uint32 {
	if rng.Intn(4) == 0 {
		return rng.Uint32()
	}
	return math.Float32bits(float32(rng.NormFloat64() * 100))
}

// TestBlockKernelsMatchReference drives seeded random sequences of every
// Block kernel against refBlock, with no injector and with a seeded one
// (flips, stuck bits and wearout), and compares every cell, the Stats and
// the fault counts after each step. Aliased sources are drawn on purpose:
// GroupBcast and Pattern with srcOff == dstOff, and Broadcast from a row
// inside its own range with overlapping words.
func TestBlockKernelsMatchReference(t *testing.T) {
	cfg := fault.Config{Seed: 7, StuckProb: 0.02, FlipProb: 0.02, EnduranceWrites: 6}
	for _, faulty := range []bool{false, true} {
		var total fault.Counts
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b, m := New(3), &refBlock{}
			if faulty {
				b.Faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(3)
				m.faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(3)
			}
			for i := 0; i < 2000; i++ {
				r, o, v := rng.Intn(Rows), rng.Intn(WordsPerRow), randWord(rng)
				if i%2 == 0 {
					r = rng.Intn(320)
				}
				b.SetWord(r, o, v)
				m.store(r, o, v)
			}
			var snap []uint32
			var refSnap [Rows][WordsPerRow]uint32
			for step := 0; step < 300; step++ {
				op := rng.Intn(9)
				switch op {
				case 0: // SetWord
					r, o, v := rng.Intn(Rows), rng.Intn(WordsPerRow), randWord(rng)
					b.SetWord(r, o, v)
					m.store(r, o, v)
				case 1: // ArithSel
					rs, rc := kernelRange(rng)
					aop := ArithOp(rng.Intn(3))
					d, s, s2 := rng.Intn(WordsPerRow), rng.Intn(WordsPerRow), rng.Intn(WordsPerRow)
					if rng.Intn(3) == 0 {
						d = s
					}
					b.ArithSel(aop, rs, rc, d, s, s2)
					m.arith(aop, rs, rc, d, s, s2)
				case 2: // GroupBcast
					rs, rc := kernelRange(rng)
					stride := []int{1, 2, 3, 8, 64}[rng.Intn(5)]
					size := 1 + rng.Intn(8)
					idx := rng.Intn(size)
					so, do := rng.Intn(WordsPerRow), rng.Intn(WordsPerRow)
					if rng.Intn(3) == 0 {
						do = so
					}
					b.GroupBcast(rs, rc, so, do, stride, size, idx)
					m.groupBcast(rs, rc, so, do, stride, size, idx)
				case 3: // Pattern
					rs, rc := kernelRange(rng)
					stride := []int{1, 2, 8, 64}[rng.Intn(4)]
					size := 1 + rng.Intn(8)
					base := rng.Intn(Rows - size + 1)
					if rc > 0 && rng.Intn(3) == 0 {
						base = rs + rng.Intn(rc)
						if base+size > Rows {
							base = Rows - size
						}
					}
					so, do := rng.Intn(WordsPerRow), rng.Intn(WordsPerRow)
					if rng.Intn(3) == 0 {
						do = so
					}
					b.Pattern(base, rs, rc, so, do, stride, size)
					m.pattern(base, rs, rc, so, do, stride, size)
				case 4: // Broadcast
					rs, rc := kernelRange(rng)
					wc := rng.Intn(9)
					so, do := rng.Intn(WordsPerRow-wc+1), rng.Intn(WordsPerRow-wc+1)
					src := rng.Intn(Rows)
					if rc > 0 && rng.Intn(2) == 0 {
						src = rs + rng.Intn(rc)
						if wc > 0 {
							do = so + rng.Intn(2*wc+1) - wc
							do = min(max(do, 0), WordsPerRow-wc)
						}
					}
					b.Broadcast(src, rs, rc, so, do, wc)
					m.broadcast(src, rs, rc, so, do, wc)
				case 5: // ReadRow, WriteRow
					r, w := rng.Intn(Rows), rng.Intn(Rows)
					got := b.ReadRow(r)
					m.readRow(r)
					if [WordsPerRow]uint32(got) != m.buf {
						t.Fatalf("faults=%v seed %d step %d: ReadRow(%d) = %x, want %x", faulty, seed, step, r, got, m.buf)
					}
					b.WriteRow(w)
					m.writeRow(w)
				case 6: // LoadBuffer, WriteRow
					var payload [WordsPerRow]uint32
					for o := range payload {
						payload[o] = randWord(rng)
					}
					w := rng.Intn(Rows)
					b.LoadBuffer(payload[:])
					m.buf = payload
					b.WriteRow(w)
					m.writeRow(w)
				case 7: // Snapshot, or Restore to the last one
					if snap == nil || rng.Intn(2) == 0 {
						snap, refSnap = b.Snapshot(), m.cells
					} else {
						b.Restore(snap)
						m.cells = refSnap
					}
				case 8: // Scrub
					got := b.Scrub()
					var want fault.ScrubResult
					if m.faults != nil {
						want = m.faults.Scrub(
							func(r, o int) uint32 { return m.cells[r][o] },
							func(r, o int, v uint32) { m.store(r, o, v) })
					}
					if got != want {
						t.Fatalf("faults=%v seed %d step %d: Scrub = %+v, want %+v", faulty, seed, step, got, want)
					}
				}
				for r := 0; r < Rows; r++ {
					for o := 0; o < WordsPerRow; o++ {
						if got, want := b.GetWord(r, o), m.cells[r][o]; got != want {
							t.Fatalf("faults=%v seed %d step %d (op %d): cell (%d,%d) = %08x, want %08x",
								faulty, seed, step, op, r, o, got, want)
						}
					}
				}
				if b.Stats != m.st {
					t.Fatalf("faults=%v seed %d step %d (op %d): Stats %+v, want %+v", faulty, seed, step, op, b.Stats, m.st)
				}
				if faulty {
					if got, want := b.Faults.Counts(), m.faults.Counts(); got != want {
						t.Fatalf("seed %d step %d (op %d): fault counts %+v, want %+v", seed, step, op, got, want)
					}
					if got, want := b.Faults.Pending(), m.faults.Pending(); got != want {
						t.Fatalf("seed %d step %d (op %d): %d pending corrections, want %d", seed, step, op, got, want)
					}
				}
			}
			if faulty {
				c := b.Faults.Counts()
				total.Flips += c.Flips
				total.StuckWrites += c.StuckWrites
				total.Wearouts += c.Wearouts
			}
		}
		if faulty && (total.Flips == 0 || total.StuckWrites == 0 || total.Wearouts == 0) {
			t.Fatalf("the seeded injector must flip, stick and wear out at least once: %+v", total)
		}
	}
}

// TestArithSelSpecialValues puts special operand pairs at lanes 0, 3, 4
// and 31 of every tile, so that both the whole-tile kernel and the runs of
// a partial tile meet them, and compares every cell with refBlock bit for
// bit for each op, row range and aliasing, with and without an injector.
// When both operands are NaN the result must be x's payload, quieted.
func TestArithSelSpecialValues(t *testing.T) {
	pairs := []struct {
		name string
		x, y uint32
	}{
		{"+0 -0", 0x00000000, 0x80000000},
		{"-0 -0", 0x80000000, 0x80000000},
		{"subnormal underflow", 0x00000001, 0x00400000},
		{"subnormal sum", 0x00400000, 0x00400001},
		{"overflow", 0x7f7fffff, 0x7f7fffff},
		{"negative overflow", 0xff7fffff, 0x7f7fffff},
		{"Inf Inf", 0x7f800000, 0x7f800000},
		{"Inf -Inf", 0x7f800000, 0xff800000},
		{"0 Inf", 0x00000000, 0x7f800000},
		{"quiet NaN x", 0x7fc01234, 0x3f800000},
		{"quiet NaN y", 0x3f800000, 0xffc05678},
		{"signalling NaN x", 0x7f800001, 0x3f800000},
		{"signalling NaN y", 0x3f800000, 0xff812345},
		{"NaN pair", 0x7f812345, 0xffc06789},
		{"quiet NaN pair", 0xffc00abc, 0x7fc00def},
	}
	lanes := []int{0, 3, 4, 31}
	const xOff, yOff, dOff = 0, 1, 2
	// pairAt is the pair index at a row, or -1 for an ordinary lane;
	// across the 32 tiles every pair lands on every special lane.
	pairAt := func(r int) int {
		for j, l := range lanes {
			if r%tileRows == l {
				return (r/tileRows*len(lanes) + j) % len(pairs)
			}
		}
		return -1
	}
	cfg := fault.Config{Seed: 11, StuckProb: 0.02, FlipProb: 0.02, EnduranceWrites: 6}
	for _, faulty := range []bool{false, true} {
		for _, op := range []ArithOp{OpAdd, OpMul, OpSub} {
			for _, d := range []int{dOff, xOff, yOff} {
				for _, rs := range []int{0, 5, 31, 32} {
					for _, rc := range []int{0, 1, 3, 4, 33, 64, 100, 512} {
						b, m := New(0), &refBlock{}
						for r := 0; r < Rows; r++ {
							x, y := math.Float32bits(float32(r)+0.25), math.Float32bits(1.5-float32(r))
							if p := pairAt(r); p >= 0 {
								x, y = pairs[p].x, pairs[p].y
							}
							for o, v := range []uint32{x, y, 0xdeadbeef} {
								b.SetWord(r, o, v)
								m.cells[r][o] = v
							}
						}
						if faulty {
							b.Faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(0)
							m.faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(0)
						}
						b.ArithSel(op, rs, rc, d, xOff, yOff)
						m.arith(op, rs, rc, d, xOff, yOff)
						for r := 0; r < Rows; r++ {
							for o := 0; o < WordsPerRow; o++ {
								if got, want := b.GetWord(r, o), m.cells[r][o]; got != want {
									t.Fatalf("faults=%v op %d dst %d rows [%d,%d): cell (%d,%d) = %08x, want %08x",
										faulty, op, d, rs, rs+rc, r, o, got, want)
								}
							}
						}
						if b.Stats != m.st {
							t.Fatalf("faults=%v op %d dst %d rows [%d,%d): Stats %+v, want %+v", faulty, op, d, rs, rs+rc, b.Stats, m.st)
						}
						if faulty {
							continue
						}
						for r := rs; r < rs+rc; r++ {
							if p := pairAt(r); p >= 0 && isNaN(pairs[p].x) && isNaN(pairs[p].y) {
								if got, want := b.GetWord(r, d), pairs[p].x|0x00400000; got != want {
									t.Fatalf("op %d %s at row %d: %08x, want x quieted %08x", op, pairs[p].name, r, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

func isNaN(w uint32) bool { return w&0x7fffffff > 0x7f800000 }

// An op outside OpAdd, OpMul and OpSub writes no cell on either build.
func TestArithSelUnknownOpWritesNothing(t *testing.T) {
	b, _ := kernelBlocks()
	want := b.Snapshot()
	for _, op := range []ArithOp{-1, OpSub + 1} {
		b.ArithSel(op, 0, Rows, 2, 0, 1)
		for i, v := range b.Snapshot() {
			if v != want[i] {
				t.Fatalf("ArithSel(%d) changed cell %d: %08x, want %08x", op, i, v, want[i])
			}
		}
	}
}

// copyRows is rows CopyWords calls in ascending row order, each word a
// write of its own, reading src as it stands (src may be m).
func (m *refBlock) copyRows(dr, do int, src *refBlock, sr, so, n, rows int) {
	for i := 0; i < rows; i++ {
		for w := 0; w < n; w++ {
			m.store(dr+i, do+w, src.cells[sr+i][so+w])
		}
	}
}

// TestColumnRunKernelsMatchReference drives the kernels' tile-run paths
// against refBlock: CopyRows between two blocks and inside one, over row
// runs of 1 to 70 rows and 1 to 4 words that cross 32-row boundaries and
// often end at the last row; GroupBcast at the strides that divide a tile
// with segment-aligned starts, whole and ragged spans; and Pattern over
// ranges longer than its period, aliased or not. It runs with no injector
// and with a seeded one, comparing both blocks' cells, Stats and fault
// counts after each step.
func TestColumnRunKernelsMatchReference(t *testing.T) {
	cfg := fault.Config{Seed: 5, StuckProb: 0.02, FlipProb: 0.02, EnduranceWrites: 6}
	for _, faulty := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			bs, ms := [2]*Block{New(0), New(1)}, [2]*refBlock{{}, {}}
			for i := range bs {
				if faulty {
					bs[i].Faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(i)
					ms[i].faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(i)
				}
				for r := 0; r < Rows; r++ {
					for o := 0; o < WordsPerRow; o++ {
						v := randWord(rng)
						bs[i].SetWord(r, o, v)
						ms[i].store(r, o, v)
					}
				}
			}
			for step := 0; step < 200; step++ {
				op, d := rng.Intn(3), rng.Intn(2)
				b, m := bs[d], ms[d]
				switch op {
				case 0: // CopyRows, from the other block or from this one
					s := 1 - d
					if rng.Intn(4) == 0 {
						s = d
					}
					rows, n := 1+rng.Intn(70), 1+rng.Intn(4)
					sr, dr := rng.Intn(Rows-rows+1), rng.Intn(Rows-rows+1)
					if rng.Intn(3) == 0 {
						dr = Rows - rows
					}
					if rng.Intn(4) == 0 {
						sr = Rows - rows
					}
					so, do := rng.Intn(WordsPerRow-n+1), rng.Intn(WordsPerRow-n+1)
					if s == d && rng.Intn(2) == 0 {
						// Overlapping ranges, where row order matters.
						dr = min(max(sr+rng.Intn(7)-3, 0), Rows-rows)
						do = min(max(so+rng.Intn(3)-1, 0), WordsPerRow-n)
					}
					b.CopyRows(dr, do, bs[s], sr, so, n, rows)
					m.copyRows(dr, do, ms[s], sr, so, n, rows)
				case 1: // GroupBcast with tile-aligned segments
					stride := []int{1, 2, 4, 8, 16, 32}[rng.Intn(6)]
					size := []int{1, 2, 3, 4, 4, 5, 8, 8}[rng.Intn(8)]
					span := stride * size
					spans := 1 + rng.Intn(max(1, 512/span))
					rc := min(spans*span+rng.Intn(2)*rng.Intn(span), Rows)
					rs := rng.Intn((Rows-rc)/stride+1) * stride
					if rng.Intn(2) == 0 {
						rs = rng.Intn((Rows-rc)/span+1) * span
					}
					so, do := rng.Intn(WordsPerRow), rng.Intn(WordsPerRow)
					if rng.Intn(3) == 0 {
						do = so
					}
					idx := rng.Intn(size)
					b.GroupBcast(rs, rc, so, do, stride, size, idx)
					m.groupBcast(rs, rc, so, do, stride, size, idx)
				case 2: // Pattern over several periods
					stride := []int{1, 2, 3, 8, 16, 64}[rng.Intn(6)]
					size := 1 + rng.Intn(8)
					rs, rc := rng.Intn(256), 1+rng.Intn(700)
					base := rng.Intn(Rows - size + 1)
					if rng.Intn(3) == 0 {
						base = min(rs+rng.Intn(rc), Rows-size)
					}
					so, do := rng.Intn(WordsPerRow), rng.Intn(WordsPerRow)
					if rng.Intn(2) == 0 {
						do = so
					}
					b.Pattern(base, rs, rc, so, do, stride, size)
					m.pattern(base, rs, rc, so, do, stride, size)
				}
				for i := range bs {
					for r := 0; r < Rows; r++ {
						for o := 0; o < WordsPerRow; o++ {
							if got, want := bs[i].GetWord(r, o), ms[i].cells[r][o]; got != want {
								t.Fatalf("faults=%v seed %d step %d (op %d): block %d cell (%d,%d) = %08x, want %08x",
									faulty, seed, step, op, i, r, o, got, want)
							}
						}
					}
					if bs[i].Stats != ms[i].st {
						t.Fatalf("faults=%v seed %d step %d (op %d): block %d Stats %+v, want %+v", faulty, seed, step, op, i, bs[i].Stats, ms[i].st)
					}
					if faulty {
						if got, want := bs[i].Faults.Counts(), ms[i].faults.Counts(); got != want {
							t.Fatalf("seed %d step %d (op %d): block %d fault counts %+v, want %+v", seed, step, op, i, got, want)
						}
					}
				}
			}
		}
	}
}
