package sim

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/xbar"
)

// pinBlocks are the blocks the pinned transfer batches touch: six local
// ids spread over each of four tiles of a PIM-2GB chip (64 tiles), so
// batches mix intra-tile routes of every length, cross-tile routes over
// the chip-level network, and self-transfers, with tiles interleaved.
var pinBlocks = func() []int {
	var ids []int
	for _, tile := range []int{0, 1, 2, 5} {
		for _, local := range []int{0, 3, 17, 64, 130, 255} {
			ids = append(ids, tile*256+local)
		}
	}
	return ids
}()

// pinRows bounds the rows the pinned batches read and write.
const pinRows = 16

// pinBatches builds seeded transfer batches over pinBlocks. maxWords > 32
// builds timing-only batches whose payloads span several row buffers
// (offsets 0); otherwise transfers stay inside one 32-word row.
func pinBatches(seed int64, maxWords int) [][]RowTransfer {
	r := rand.New(rand.NewSource(seed))
	var out [][]RowTransfer
	for _, n := range []int{1, 2, 37, 300} {
		batch := make([]RowTransfer, n)
		for i := range batch {
			src := pinBlocks[r.Intn(len(pinBlocks))]
			dst := pinBlocks[r.Intn(len(pinBlocks))]
			switch k := r.Intn(10); {
			case k == 0: // self-transfer
				dst = src
			case k <= 6: // same tile
				dst = src/256*256 + dst%256
			}
			tr := RowTransfer{SrcBlock: src, SrcRow: r.Intn(pinRows), DstBlock: dst, DstRow: r.Intn(pinRows)}
			if maxWords > xbar.WordsPerRow {
				tr.Words = 1 + r.Intn(maxWords)
			} else {
				tr.SrcOff, tr.DstOff = r.Intn(xbar.WordsPerRow), r.Intn(xbar.WordsPerRow)
				tr.Words = 1 + r.Intn(xbar.WordsPerRow-max(tr.SrcOff, tr.DstOff))
			}
			batch[i] = tr
		}
		out = append(out, batch)
	}
	return out
}

// rowCopies moves a batch's words through the chip row by row, in batch
// order: the data reference every replay of the batch must reproduce.
func rowCopies(e *Engine, trs []RowTransfer) {
	for _, tr := range trs {
		e.Chip.Block(tr.DstBlock).CopyWords(tr.DstRow, tr.DstOff, e.Chip.Block(tr.SrcBlock), tr.SrcRow, tr.SrcOff, tr.Words)
	}
}

// pinDigests runs the pinned batches on one fabric and hashes the
// returned phases, the interconnect report and, for the batches that fit
// in a row, the cell words rowCopies moves.
func pinDigests(t *testing.T, topo string) (phases, report, cells uint64) {
	t.Helper()
	cfg := chip.Config2GB()
	cfg.Interconnect = chip.InterconnectKind(topo)
	hp, hr, hc := fnv.New64a(), fnv.New64a(), fnv.New64a()
	word := func(h interface{ Write([]byte) (int, error) }, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, inRow := range []bool{true, false} { // in-row batches also move data
		ch, err := chip.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := New(ch)
		e.Workers = runtime.GOMAXPROCS(0)
		maxWords := xbar.WordsPerRow
		if !inRow {
			maxWords = 400
		}
		if inRow {
			for _, id := range pinBlocks {
				b := ch.Block(id)
				for row := 0; row < pinRows; row++ {
					for off := 0; off < xbar.WordsPerRow; off++ {
						b.SetWord(row, off, uint32(id*7919+row*131+off*17+1))
					}
				}
			}
		}
		for _, batch := range pinBatches(17, maxWords) {
			p := e.ExecTransfers("pin", batch)
			if inRow {
				rowCopies(e, batch)
			}
			word(hp, math.Float64bits(p.Dur))
			word(hp, math.Float64bits(p.EnergyJ))
		}
		js, err := json.Marshal(e.InterconReport())
		if err != nil {
			t.Fatal(err)
		}
		hr.Write(js)
		if inRow {
			for _, id := range pinBlocks {
				b := ch.Block(id)
				for row := 0; row < pinRows; row++ {
					for off := 0; off < xbar.WordsPerRow; off++ {
						word(hc, uint64(b.GetWord(row, off)))
					}
				}
			}
		}
	}
	return hp.Sum64(), hr.Sum64(), hc.Sum64()
}

// TestExecTransfersPinned pins ExecTransfers' priced phases, its
// interconnect congestion report and the reference data movement on
// every fabric to literal digests, under GOMAXPROCS 1 and 2. A change that
// moves one of them changed simulated behaviour, not just code.
func TestExecTransfersPinned(t *testing.T) {
	want := map[string][3]uint64{
		"htree":     {0x2e14e8d7f2b570b7, 0x241a064da1c8fbda, 0xec5623ad838cf7bb},
		"bus":       {0x1c6d07d2a311e3a7, 0x96bd38c6c6396a33, 0xec5623ad838cf7bb},
		"mesh":      {0x393de91e661d13b, 0x328d0b1ea6e45b3f, 0xec5623ad838cf7bb},
		"torus":     {0x99514498644af3a7, 0xc78317306b6d54a7, 0xec5623ad838cf7bb},
		"flatfly":   {0x81754d8ee8767f99, 0x704b92f91fbd6daf, 0xec5623ad838cf7bb},
		"dragonfly": {0x76bfe1b4efc1e0f7, 0xe65de5327de4042d, 0xec5623ad838cf7bb},
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, topo := range intercon.Names() {
			p, r, c := pinDigests(t, topo)
			if got := [3]uint64{p, r, c}; got != want[topo] {
				t.Errorf("GOMAXPROCS=%d %s: digests {%#x, %#x, %#x}, want %#x", procs, topo, p, r, c, want[topo])
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
