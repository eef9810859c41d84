//go:build amd64 && !race

package xbar

// arithTiles computes op over one column run in each of tiles consecutive
// whole tiles: the run of 32 cells starting at cells[d] (and [x], [y]),
// then the runs tileWords further on. The operand slices are cut to the
// last tile's run here, so every index the kernel touches is bounds
// checked before it runs.
func arithTiles(op ArithOp, cells []uint32, d, x, y, tiles int) {
	ext := (tiles-1)*tileWords + tileRows
	arithTilesSSE2(int(op), &cells[d:][:ext][0], &cells[x:][:ext][0], &cells[y:][:ext][0], tiles)
}

// arithTilesSSE2 runs ADDPS, MULPS or SUBPS (op is OpAdd, OpMul or OpSub;
// any other op writes nothing, as in arithRun) with x as the destination
// operand over tiles runs of 32 lanes spaced tileWords apart.
//
//go:noescape
func arithTilesSSE2(op int, d, x, y *uint32, tiles int)

// fillRun stores v into every word of d, four words per store.
//
//go:noescape
func fillRun(d []uint32, v uint32)
