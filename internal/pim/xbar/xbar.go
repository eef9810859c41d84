// Package xbar models one PIM memory block: a 1K x 1K memristor crossbar
// array with sense amplifiers, a per-block decoder, and a row/column buffer
// (Section 4.1). Computation happens inside the block in a bit-serial,
// row-parallel way: one arithmetic instruction runs the same NOR
// micro-sequence in every addressed row simultaneously, so an instruction's
// latency is independent of how many rows it touches while its energy
// scales with the row count.
//
// The block executes instructions functionally on real float32 data. The
// bit-level equivalence of its add/mul semantics with the in-array NOR
// sequences is established by internal/pim/nor's property tests, so this
// package computes with hardware float32 arithmetic while charging Table 4
// energy and timing. On amd64 (outside race builds) a run of whole tiles
// is one SSE2 call doing four packed lanes per instruction, and column
// fills store four words at a time; elsewhere plain Go loops do the same
// work one word at a time. Both are bit-identical to scalar float32
// (DESIGN.md §7.4).
//
// The host stores a block the way its kernels walk it: in 32-row tiles,
// each kept word column by word column (see at), the host-side analogue
// of SIMDRAM's vertical operand layout. A row-parallel kernel then sweeps
// contiguous runs of one column instead of one word per 128-byte row, and
// a tile is one 4 KiB page of 32 whole rows, so memory is touched in the
// same pages as a row-major array would. Cell values, Stats, and every
// write through the fault injector are the same as the plain per-row,
// per-word loops (TestBlockKernelsMatchReference).
package xbar

import (
	"fmt"
	"math"

	"wavepim/internal/params"
	"wavepim/internal/pim/fault"
)

// Rows and WordsPerRow describe the block geometry (1 Mb = 1024 x 1024
// cells, 32 words of 32 bits per row).
const (
	Rows        = params.CellsPerRow
	WordsPerRow = params.WordsPerRow
)

// Stats accumulates the physical activity of one block.
type Stats struct {
	RowReads   int64   // row buffer loads
	RowWrites  int64   // row buffer stores
	AddOps     int64   // FP32 additions executed (rows x instructions)
	MulOps     int64   // FP32 multiplications executed
	CopiedRows int64   // broadcast row writes
	NORSteps   int64   // sequential NOR steps charged as latency
	BusySec    float64 // total busy time
	EnergyJ    float64 // dynamic energy
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.RowReads += o.RowReads
	s.RowWrites += o.RowWrites
	s.AddOps += o.AddOps
	s.MulOps += o.MulOps
	s.CopiedRows += o.CopiedRows
	s.NORSteps += o.NORSteps
	s.BusySec += o.BusySec
	s.EnergyJ += o.EnergyJ
}

// Block is one crossbar memory block.
type Block struct {
	ID    int
	cells []uint32 // Rows*WordsPerRow float32 bit patterns, tiled (see at)
	buf   []uint32 // row buffer (one row)
	Stats Stats

	// Faults, when non-nil, intercepts every cell write with the
	// deterministic fault model (stuck-at, transient flips, wearout).
	// nil is the golden-path fast path: one pointer test per write.
	Faults *fault.BlockFaults
}

// tileRows is the height of one cell tile: 32 rows of 32 words, 4 KiB.
// tileWords is its cell count, the distance between one column's runs in
// consecutive tiles.
const (
	tileRows  = 32
	tileWords = tileRows * WordsPerRow
)

// at is the index of cell (row, off) in Block.cells. The array is cut into
// 32-row tiles and each tile is stored word column by word column, so one
// word of consecutive rows is contiguous inside a tile: the run every
// row-parallel kernel walks. A tile is one 4 KiB page holding 32 whole
// rows, so a layout that uses only some rows faults in no more memory than
// a row-major array would.
func at(row, off int) int {
	return (row&^(tileRows-1))*WordsPerRow + off*tileRows + row&(tileRows-1)
}

// run is how many of the n rows starting at row lie in row's tile.
func run(row, n int) int { return min(n, tileRows-row&(tileRows-1)) }

// store is the single choke point for cell writes: the fault injector, if
// attached, decides what actually lands in the array.
func (b *Block) store(row, off int, v uint32) {
	if b.Faults != nil {
		v = b.Faults.Store(row, off, v)
	}
	b.cells[at(row, off)] = v
}

// New allocates a zeroed block.
func New(id int) *Block {
	return &Block{ID: id, cells: make([]uint32, Rows*WordsPerRow), buf: make([]uint32, WordsPerRow)}
}

func (b *Block) checkRow(row int) {
	if row < 0 || row >= Rows {
		panic(fmt.Sprintf("xbar: row %d out of range [0,%d)", row, Rows))
	}
}

func (b *Block) checkOff(off int) {
	if off < 0 || off >= WordsPerRow {
		panic(fmt.Sprintf("xbar: word offset %d out of range [0,%d)", off, WordsPerRow))
	}
}

func (b *Block) checkRows(rowStart, rowCount int) {
	if rowCount < 0 || rowStart < 0 || rowStart+rowCount > Rows {
		panic(fmt.Sprintf("xbar: row range [%d,%d) out of bounds", rowStart, rowStart+rowCount))
	}
}

func (b *Block) checkWords(off, n int) {
	if n < 0 || off < 0 || off+n > WordsPerRow {
		panic(fmt.Sprintf("xbar: words [%d,%d) out of bounds", off, off+n))
	}
}

// SetFloat stores a float32 directly into the cells (host-side data
// loading; DRAM transaction costs are charged by the chip-level model, not
// here).
func (b *Block) SetFloat(row, off int, v float32) {
	b.SetWord(row, off, math.Float32bits(v))
}

// GetFloat reads a float32 from the cells.
func (b *Block) GetFloat(row, off int) float32 {
	return math.Float32frombits(b.GetWord(row, off))
}

// SetWord and GetWord are the raw bit-pattern accessors.
func (b *Block) SetWord(row, off int, v uint32) {
	b.checkRow(row)
	b.checkOff(off)
	b.store(row, off, v)
}

func (b *Block) GetWord(row, off int) uint32 {
	b.checkRow(row)
	b.checkOff(off)
	return b.cells[at(row, off)]
}

// CopyWords copies n words from word srcOff of src's row srcRow into this
// block's row dstRow from word dstOff, one word at a time in ascending
// order (src may be b itself): the data half of an inter-block transfer.
func (b *Block) CopyWords(dstRow, dstOff int, src *Block, srcRow, srcOff, n int) {
	b.checkRow(dstRow)
	b.checkWords(dstOff, n)
	src.checkRow(srcRow)
	src.checkWords(srcOff, n)
	if b.Faults != nil {
		for w := 0; w < n; w++ {
			b.store(dstRow, dstOff+w, src.cells[at(srcRow, srcOff+w)])
		}
		return
	}
	d, s := at(dstRow, dstOff), at(srcRow, srcOff)
	for w := 0; w < n; w++ {
		b.cells[d+w*tileRows] = src.cells[s+w*tileRows]
	}
}

// CopyRows copies n words from word srcOff of src's rows [srcRow,
// srcRow+rows) into this block's rows [dstRow, dstRow+rows) from word
// dstOff, leaving what rows CopyWords calls in ascending row order leave:
// a run of transfers between consecutive rows. Between two blocks without
// an injector it copies each word column a tile run at a time; a copy
// inside one block, or into a block with an injector, runs row by row.
func (b *Block) CopyRows(dstRow, dstOff int, src *Block, srcRow, srcOff, n, rows int) {
	b.checkRows(dstRow, rows)
	b.checkWords(dstOff, n)
	src.checkRows(srcRow, rows)
	src.checkWords(srcOff, n)
	if b.Faults != nil || src == b {
		for i := 0; i < rows; i++ {
			b.CopyWords(dstRow+i, dstOff, src, srcRow+i, srcOff, n)
		}
		return
	}
	for rows > 0 {
		k := min(run(dstRow, rows), run(srcRow, rows))
		d, s := at(dstRow, dstOff), at(srcRow, srcOff)
		for w := 0; w < n; w++ {
			copy(b.cells[d+w*tileRows:][:k], src.cells[s+w*tileRows:][:k])
		}
		dstRow, srcRow, rows = dstRow+k, srcRow+k, rows-k
	}
}

// ReadRow loads a row into the row buffer (OpRead) and returns the buffer.
func (b *Block) ReadRow(row int) []uint32 {
	b.checkRow(row)
	for o := range b.buf {
		b.buf[o] = b.cells[at(row, o)]
	}
	b.Stats.RowReads++
	b.Stats.BusySec += params.BlockRowReadLatency
	b.Stats.EnergyJ += params.RowBufferReadEnergyJ
	return b.buf
}

// WriteRow stores the row buffer into a row (OpWrite).
func (b *Block) WriteRow(row int) {
	b.checkRow(row)
	for o, v := range b.buf {
		b.store(row, o, v)
	}
	b.Stats.RowWrites++
	b.Stats.BusySec += params.BlockRowWriteLatency
	b.Stats.EnergyJ += params.RowBufferWriteEnergyJ
}

// LoadBuffer overwrites the row buffer with external payload (the
// receiving half of an inter-block memcpy).
func (b *Block) LoadBuffer(payload []uint32) {
	if len(payload) != WordsPerRow {
		panic(fmt.Sprintf("xbar: payload has %d words, want %d", len(payload), WordsPerRow))
	}
	copy(b.buf, payload)
}

// copyCol copies word srcOff of rows [srcRow, srcRow+n) into word dstOff
// of rows [dstRow, dstRow+n), one row at a time in ascending order, each
// read seeing the writes before it (the ranges may overlap).
func (b *Block) copyCol(dstRow, dstOff, srcRow, srcOff, n int) {
	if b.Faults != nil {
		for i := 0; i < n; i++ {
			b.store(dstRow+i, dstOff, b.cells[at(srcRow+i, srcOff)])
		}
		return
	}
	for n > 0 {
		k := min(run(dstRow, n), run(srcRow, n))
		d := b.cells[at(dstRow, dstOff):][:k]
		s := b.cells[at(srcRow, srcOff):][:k]
		if dstOff != srcOff {
			// Different columns never overlap.
			copy(d, s)
		} else {
			for i := range d {
				d[i] = s[i]
			}
		}
		dstRow, srcRow, n = dstRow+k, srcRow+k, n-k
	}
}

// fillCol writes word srcOff of row srcRow into word dstOff of rows
// [dstRow, dstRow+n), in ascending row order.
func (b *Block) fillCol(dstRow, dstOff, srcRow, srcOff, n int) {
	if b.Faults != nil {
		for r := dstRow; r < dstRow+n; r++ {
			b.store(r, dstOff, b.cells[at(srcRow, srcOff)])
		}
		return
	}
	// Without an injector the source keeps its value even when it lies
	// in the filled rows, so it is read once.
	v := b.cells[at(srcRow, srcOff)]
	for n > 0 {
		k := run(dstRow, n)
		fillRun(b.cells[at(dstRow, dstOff):][:k], v)
		dstRow, n = dstRow+k, n-k
	}
}

// ArithOp selects the row-parallel arithmetic operation.
type ArithOp int

const (
	OpAdd ArithOp = iota
	OpMul
	OpSub
)

// ArithSel executes a row-parallel FP32 operation of the given kind.
// Subtraction is bit-serial two's-complement-style and costs the same NOR
// sequence length as addition.
func (b *Block) ArithSel(op ArithOp, rowStart, rowCount, dstOff, srcOff, src2Off int) {
	b.checkRows(rowStart, rowCount)
	b.checkOff(dstOff)
	b.checkOff(srcOff)
	b.checkOff(src2Off)
	for r, n := rowStart, rowCount; n > 0; {
		k := run(r, n)
		if k == tileRows {
			// A stretch of whole tiles is one kernel call.
			k = n &^ (tileRows - 1)
			arithTiles(op, b.cells, at(r, dstOff), at(r, srcOff), at(r, src2Off), k/tileRows)
		} else {
			arithRun(op, b.cells[at(r, dstOff):][:k], b.cells[at(r, srcOff):][:k], b.cells[at(r, src2Off):][:k])
		}
		// Each row reads only its own cells, so passing the results
		// through the injector afterwards is the same per-cell write
		// sequence as storing each row as it is computed.
		if b.Faults != nil {
			for i := r; i < r+k; i++ {
				c := &b.cells[at(i, dstOff)]
				*c = b.Faults.Store(i, dstOff, *c)
			}
		}
		r, n = r+k, n-k
	}
	steps := int64(params.NORStepsFPAdd32)
	if op == OpMul {
		steps = params.NORStepsFPMul32
		b.Stats.MulOps += int64(rowCount)
	} else {
		b.Stats.AddOps += int64(rowCount)
	}
	b.Stats.NORSteps += steps
	b.Stats.BusySec += float64(steps) * params.TNORSeconds
	b.Stats.EnergyJ += float64(steps) * params.EnergyPerNORStep * float64(rowCount)
}

// arithRun computes d[i] = x[i] op y[i] over one run of rows. The runs
// are one column of a tile each, so they are equal or disjoint.
func arithRun(op ArithOp, d, x, y []uint32) {
	x, y = x[:len(d)], y[:len(d)]
	switch op {
	case OpAdd:
		for i := range d {
			d[i] = math.Float32bits(math.Float32frombits(x[i]) + math.Float32frombits(y[i]))
		}
	case OpMul:
		for i := range d {
			d[i] = math.Float32bits(math.Float32frombits(x[i]) * math.Float32frombits(y[i]))
		}
	case OpSub:
		for i := range d {
			d[i] = math.Float32bits(math.Float32frombits(x[i]) - math.Float32frombits(y[i]))
		}
	}
}

// GroupBcast rearranges data through the column buffers: rows in
// [rowStart, rowStart+rowCount) are partitioned into groups of groupSize
// members spaced stride rows apart, and every member's dstOff word is
// overwritten with the groupIdx-th member's srcOff word. This is the
// strided broadcast that feeds each step of a tensor-product derivative
// dot product (one GroupBcast per dshape column). A member whose source
// lies past the range (a ragged tail group) is left untouched.
func (b *Block) GroupBcast(rowStart, rowCount, srcOff, dstOff, stride, groupSize, groupIdx int) {
	b.checkRows(rowStart, rowCount)
	b.checkOff(srcOff)
	b.checkOff(dstOff)
	if stride < 1 || groupSize < 1 || groupIdx < 0 || groupIdx >= groupSize {
		panic(fmt.Sprintf("xbar: bad group geometry stride=%d size=%d idx=%d", stride, groupSize, groupIdx))
	}
	end, span := rowStart+rowCount, stride*groupSize
	// Each span of stride*groupSize rows is one set of groups: its
	// groupIdx-th stride-long segment is copied over every segment, and
	// at stride 1 that segment is one row, filled over the span. A span
	// reads and writes only its own rows, so spans are independent.
	g := rowStart
	switch {
	case b.Faults != nil || tileRows%stride != 0 || rowStart%stride != 0:
	case tileRows%span == 0 && rowStart%span == 0:
		// Whole spans lie inside one tile each: every tile run copies
		// each span's source segment over it with fixed-width stores.
		// Only source segments are read, and with srcOff == dstOff each
		// receives its own values, so the write order is free.
		for whole := end - (end-g)%span; g < whole; {
			k := run(g, whole-g)
			d, s := b.cells[at(g, dstOff):][:k], b.cells[at(g, srcOff):][:k]
			if stride == 1 {
				fillGroups(d, s, span, groupIdx)
			} else {
				for j := 0; j < k; j += span {
					copySegs(d[j:j+span], s[j+groupIdx*stride:][:stride])
				}
			}
			g += k
		}
	default:
		// Every segment lies inside one tile: whole spans copy their
		// source segment the same way, a tile run at a time.
		for ; g+span <= end; g += span {
			s := at(g+groupIdx*stride, srcOff)
			for r := g; r < g+span; {
				k := run(r, g+span-r)
				copySegs(b.cells[at(r, dstOff):][:k], b.cells[s:][:stride])
				r += k
			}
		}
	}
	// A ragged last span, or any span of other shapes.
	for ; g < end; g += span {
		src := g + groupIdx*stride
		if stride == 1 {
			if src < end {
				b.fillCol(g, dstOff, src, srcOff, min(groupSize, end-g))
			}
			continue
		}
		for m := g; m < min(g+span, end); m += stride {
			if n := min(stride, end-src, end-m); n > 0 {
				b.copyCol(m, dstOff, src, srcOff, n)
			}
		}
	}
	b.Stats.CopiedRows += int64(rowCount)
	b.Stats.BusySec += params.GroupBcastLatencySec
	b.Stats.EnergyJ += params.GroupBcastEnergyJ
}

// fillGroups fills each span-long group d[j:j+span] of a tile run with
// s[j+idx], through one store per word of a fixed-width array for the
// group sizes of the paper's elements. d may be s.
func fillGroups(d, s []uint32, span, idx int) {
	switch span {
	case 4:
		for j := 0; j < len(d); j += 4 {
			v, p := s[j+idx], (*[4]uint32)(d[j:])
			p[0], p[1], p[2], p[3] = v, v, v, v
		}
	case 8:
		for j := 0; j < len(d); j += 8 {
			v, p := s[j+idx], (*[8]uint32)(d[j:])
			p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7] = v, v, v, v, v, v, v, v
		}
	default:
		for j := 0; j < len(d); j += span {
			copySegs(d[j:j+span], s[j+idx:][:1])
		}
	}
}

// copySegs copies seg over each len(seg)-long piece of d, a tile run whose
// length is a multiple of len(seg), with one fixed-width store per piece
// when len(seg) divides a tile. seg may be one of the pieces: its words
// are read before any is written.
func copySegs(d, seg []uint32) {
	switch len(seg) {
	case 1:
		v := seg[0]
		for i := range d {
			d[i] = v
		}
	case 2:
		v := [2]uint32(seg)
		for i := 0; i < len(d); i += 2 {
			*(*[2]uint32)(d[i:]) = v
		}
	case 4:
		v := [4]uint32(seg)
		for i := 0; i < len(d); i += 4 {
			*(*[4]uint32)(d[i:]) = v
		}
	case 8:
		v := [8]uint32(seg)
		for i := 0; i < len(d); i += 8 {
			*(*[8]uint32)(d[i:]) = v
		}
	case 16:
		v := [16]uint32(seg)
		for i := 0; i < len(d); i += 16 {
			*(*[16]uint32)(d[i:]) = v
		}
	default:
		copy(d, seg)
	}
}

// Pattern distributes a per-axis constant from the storage rows into a
// compute column: row r of [rowStart, rowStart+rowCount) gets word srcOff
// of row baseRow + ((r-rowStart)/stride) mod groupSize. Same column-buffer
// mechanism (and cost) as GroupBcast.
func (b *Block) Pattern(baseRow, rowStart, rowCount, srcOff, dstOff, stride, groupSize int) {
	b.checkRow(baseRow)
	b.checkRows(rowStart, rowCount)
	b.checkOff(srcOff)
	b.checkOff(dstOff)
	if stride < 1 || groupSize < 1 || baseRow+groupSize > Rows {
		panic(fmt.Sprintf("xbar: bad pattern geometry base=%d stride=%d size=%d", baseRow, stride, groupSize))
	}
	// The output repeats every stride*groupSize rows, so also every
	// period, their least common multiple with the tile height: a whole
	// number of tiles. Unless the writes reach the source rows (srcOff ==
	// dstOff with base rows in the range), or an injector must see every
	// write in row order, only the first period is written from the
	// source rows; every later tile run is copied from the run one period
	// before, which lies at the same lane of its tile. (A stride of Rows
	// or more sends one source row to the whole range.)
	end, copied, period := rowStart+rowCount, rowStart+rowCount, 0
	aliased := srcOff == dstOff && baseRow < end && baseRow+groupSize > rowStart
	if b.Faults == nil && !aliased && stride < Rows {
		q := stride * groupSize
		period = q / min(q&-q, tileRows) * tileRows
		copied = min(end, rowStart+period)
	}
	// At stride 1 the source rows repeat every groupSize rows; above it,
	// each stride-long run of rows gets one source row.
	if stride == 1 {
		for r := rowStart; r < copied; r += groupSize {
			b.copyCol(r, dstOff, baseRow, srcOff, min(groupSize, copied-r))
		}
	} else {
		for j, r := 0, rowStart; r < copied; j, r = j+1, r+stride {
			b.fillCol(r, dstOff, baseRow+j%groupSize, srcOff, min(stride, copied-r))
		}
	}
	for r := copied; r < end; {
		k := run(r, end-r)
		copy(b.cells[at(r, dstOff):][:k], b.cells[at(r-period, dstOff):][:k])
		r += k
	}
	b.Stats.CopiedRows += int64(rowCount)
	b.Stats.BusySec += params.GroupBcastLatencySec
	b.Stats.EnergyJ += params.GroupBcastEnergyJ
}

// Broadcast replicates wordCount words starting at srcOff of srcRow into
// dstOff of every row in [rowStart, rowStart+rowCount) — the constant
// distribution step of Figure 5. It is implemented with the row drivers
// (sequential row writes), so latency scales with the row count. Each row
// receives the source words as one row write; with a fault injector every
// word is a write of its own.
func (b *Block) Broadcast(srcRow, rowStart, rowCount, srcOff, dstOff, wordCount int) {
	b.checkRow(srcRow)
	b.checkRows(rowStart, rowCount)
	b.checkWords(srcOff, wordCount)
	b.checkWords(dstOff, wordCount)
	end := rowStart + rowCount
	if b.Faults != nil {
		for r := rowStart; r < end; r++ {
			for w := 0; w < wordCount; w++ {
				b.store(r, dstOff+w, b.cells[at(srcRow, srcOff+w)])
			}
		}
	} else {
		// A source row inside the range may overwrite its own source
		// words: the rows up to and including it receive them as they
		// were, the rows after it as rewritten.
		split := min(max(srcRow+1, rowStart), end)
		b.fillWords(rowStart, split, srcRow, srcOff, dstOff, wordCount)
		b.fillWords(split, end, srcRow, srcOff, dstOff, wordCount)
	}
	b.Stats.CopiedRows += int64(rowCount)
	b.Stats.BusySec += params.BlockRowReadLatency + float64(rowCount)*params.BlockRowWriteLatency
	b.Stats.EnergyJ += params.RowBufferReadEnergyJ + float64(rowCount)*params.RowBufferWriteEnergyJ
}

// fillWords writes words [srcOff, srcOff+n) of srcRow, as they stand on
// entry, into words [dstOff, dstOff+n) of rows [lo, hi), bypassing the
// fault injector.
func (b *Block) fillWords(lo, hi, srcRow, srcOff, dstOff, n int) {
	var v [WordsPerRow]uint32
	for w := 0; w < n; w++ {
		v[w] = b.cells[at(srcRow, srcOff+w)]
	}
	for r := lo; r < hi; {
		k := run(r, hi-r)
		for w, x := range v[:n] {
			fillRun(b.cells[at(r, dstOff+w):][:k], x)
		}
		r += k
	}
}

// Snapshot returns a flat copy of the cell array, taken before a
// retriable program so a verify-retry can rewind the block.
func (b *Block) Snapshot() []uint32 {
	return append([]uint32(nil), b.cells...)
}

// Restore rewinds the cell array to a Snapshot. It bypasses the fault
// injector: the snapshot already holds physically-stored (possibly
// corrupted) values, and a rollback is a modeling rewind, not a device
// write.
func (b *Block) Restore(snap []uint32) {
	if len(snap) != Rows*WordsPerRow {
		panic(fmt.Sprintf("xbar: snapshot has %d words, want %d", len(snap), Rows*WordsPerRow))
	}
	copy(b.cells, snap)
}

// Scrub runs the ECC detect-and-correct pass over the block's corrupted
// cells. Corrections are written back through the fault path, so a stuck
// bit deterministically defeats them. No-op without an injector.
func (b *Block) Scrub() fault.ScrubResult {
	if b.Faults == nil {
		return fault.ScrubResult{}
	}
	return b.Faults.Scrub(
		func(row, off int) uint32 { return b.cells[at(row, off)] },
		func(row, off int, v uint32) { b.store(row, off, v) },
	)
}

// CorrectedWord reads a word with ECC knowledge applied: a cell pending
// correction yields its intended value. This is the readout path of a
// spare-block migration.
func (b *Block) CorrectedWord(row, off int) uint32 {
	if b.Faults != nil {
		if v, ok := b.Faults.Intended(row, off); ok {
			return v
		}
	}
	return b.cells[at(row, off)]
}
