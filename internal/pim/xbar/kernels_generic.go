//go:build !amd64 || race

package xbar

// arithTiles computes op over one column run in each of tiles consecutive
// whole tiles: the run of 32 cells starting at cells[d] (and [x], [y]),
// then the runs tileWords further on.
func arithTiles(op ArithOp, cells []uint32, d, x, y, tiles int) {
	for ; tiles > 0; tiles-- {
		arithRun(op, cells[d:][:tileRows], cells[x:][:tileRows], cells[y:][:tileRows])
		d, x, y = d+tileWords, x+tileWords, y+tileWords
	}
}

// fillRun stores v into every word of d.
func fillRun(d []uint32, v uint32) {
	for i := range d {
		d[i] = v
	}
}
