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
	end := rowStart + rowCount
	// Each span of stride*groupSize rows is one set of groups: its
	// groupIdx-th stride-long segment is copied over every segment, and
	// at stride 1 that segment is one row, filled over the span.
	for g := rowStart; g < end; g += stride * groupSize {
		src := g + groupIdx*stride
		if stride == 1 {
			if src < end {
				b.fillCol(g, dstOff, src, srcOff, min(groupSize, end-g))
			}
			continue
		}
		for m := g; m < min(g+stride*groupSize, end); m += stride {
			if n := min(stride, end-src, end-m); n > 0 {
				b.copyCol(m, dstOff, src, srcOff, n)
			}
		}
	}
	b.Stats.CopiedRows += int64(rowCount)
	b.Stats.BusySec += params.GroupBcastLatencySec
	b.Stats.EnergyJ += params.GroupBcastEnergyJ
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
	// At stride 1 the source rows repeat every groupSize rows; above it,
	// each stride-long run of rows gets one source row.
	end := rowStart + rowCount
	if stride == 1 {
		for r := rowStart; r < end; r += groupSize {
			b.copyCol(r, dstOff, baseRow, srcOff, min(groupSize, end-r))
		}
	} else {
		for j, r := 0, rowStart; r < end; j, r = j+1, r+stride {
			b.fillCol(r, dstOff, baseRow+j%groupSize, srcOff, min(stride, end-r))
		}
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
