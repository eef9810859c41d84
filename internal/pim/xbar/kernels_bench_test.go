package xbar

import (
	"math"
	"testing"
)

// kernelRows is the row count of one paper-sized element (8^3 GLL nodes);
// raggedRows is the row count of ArithSel/ragged.
const (
	kernelRows = 512
	raggedRows = 200
)

// blockKernels are the row-parallel kernels at the shapes a compiled
// np=8 element issues them: every axis stride of the tensor-product
// GroupBcast and Pattern, and one- and four-word constant Broadcasts; and
// the transfer copies, row by row and as column runs.
var blockKernels = []struct {
	name string
	rows int // addressed rows per call
	run  func(b, src *Block)
}{
	{"ArithSel/add", kernelRows, func(b, _ *Block) { b.ArithSel(OpAdd, 0, kernelRows, 2, 0, 1) }},
	{"ArithSel/mul", kernelRows, func(b, _ *Block) { b.ArithSel(OpMul, 0, kernelRows, 2, 0, 1) }},
	{"ArithSel/sub", kernelRows, func(b, _ *Block) { b.ArithSel(OpSub, 0, kernelRows, 2, 0, 1) }},
	// A partial head tile, whole tiles and a partial tail.
	{"ArithSel/ragged", raggedRows, func(b, _ *Block) { b.ArithSel(OpAdd, 5, raggedRows, 2, 0, 1) }},
	{"GroupBcast/stride1", kernelRows, func(b, _ *Block) { b.GroupBcast(0, kernelRows, 0, 3, 1, 8, 5) }},
	{"GroupBcast/stride8", kernelRows, func(b, _ *Block) { b.GroupBcast(0, kernelRows, 0, 3, 8, 8, 5) }},
	{"GroupBcast/stride64", kernelRows, func(b, _ *Block) { b.GroupBcast(0, kernelRows, 0, 3, 64, 8, 5) }},
	{"Pattern/stride1", kernelRows, func(b, _ *Block) { b.Pattern(kernelRows, 0, kernelRows, 1, 4, 1, 8) }},
	{"Pattern/stride8", kernelRows, func(b, _ *Block) { b.Pattern(kernelRows, 0, kernelRows, 1, 4, 8, 8) }},
	{"Pattern/stride64", kernelRows, func(b, _ *Block) { b.Pattern(kernelRows, 0, kernelRows, 1, 4, 64, 8) }},
	{"Broadcast/4words", kernelRows, func(b, _ *Block) { b.Broadcast(kernelRows, 0, kernelRows, 8, 20, 4) }},
	// A one-word constant, as every bconst of an element RHS issues it.
	{"Broadcast/1word", kernelRows, func(b, _ *Block) { b.Broadcast(kernelRows, 0, kernelRows, 8, 20, 1) }},
	// A whole-row transfer per row, as a dependent batch's replay issues it.
	{"CopyWords/row", kernelRows, func(b, src *Block) {
		for r := 0; r < kernelRows; r++ {
			b.CopyWords(r, 0, src, r, 0, WordsPerRow)
		}
	}},
	// Runs of 8 consecutive rows of 4 words, the shape of an elastic face
	// fetch replayed as column runs.
	{"CopyRows/run", kernelRows, func(b, src *Block) {
		for r := 0; r < kernelRows; r += 8 {
			b.CopyRows(r, 4, src, r, 0, 4, 8)
		}
	}},
}

// kernelBlocks returns a destination block holding finite operands and a
// source block for CopyWords and CopyRows.
func kernelBlocks() (b, src *Block) {
	b, src = New(0), New(1)
	for r := 0; r < Rows; r++ {
		for o := 0; o < WordsPerRow; o++ {
			v := math.Float32bits(float32(r%97) + float32(o)/8)
			b.SetWord(r, o, v)
			src.SetWord(r, o, v)
		}
	}
	return b, src
}

// BenchmarkBlockKernels reports host ns per addressed row for each kernel
// over one 512-row element, or over its rows for ArithSel/ragged.
func BenchmarkBlockKernels(bm *testing.B) {
	for _, k := range blockKernels {
		bm.Run(k.name, func(bm *testing.B) {
			b, src := kernelBlocks()
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				k.run(b, src)
			}
			bm.ReportMetric(float64(bm.Elapsed().Nanoseconds())/float64(bm.N*k.rows), "ns/row")
		})
	}
}

// Every kernel and the row-segment copy run without allocating.
func TestBlockKernelsAllocationFree(t *testing.T) {
	b, src := kernelBlocks()
	for _, k := range blockKernels {
		if n := testing.AllocsPerRun(20, func() { k.run(b, src) }); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", k.name, n)
		}
	}
}
