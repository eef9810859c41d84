package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wavepim/internal/obs"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

// independentBatch copies from the low half of pinRows into the high half
// across pinBlocks, tiles and the chip network included, so no copy reads
// a cell any copy writes and the replay may run its copies on the pool.
func independentBatch() []RowTransfer {
	var batch []RowTransfer
	for i, src := range pinBlocks {
		for k := 0; k < 3; k++ {
			dst := pinBlocks[(i*7+k*5)%len(pinBlocks)]
			row := (i + k) % (pinRows / 2)
			batch = append(batch, RowTransfer{SrcBlock: src, SrcRow: row, SrcOff: k,
				DstBlock: dst, DstRow: pinRows/2 + row, DstOff: 8 * k, Words: 1 + i%8})
		}
	}
	return batch
}

// A replay of a batch's stored price must charge what ExecTransfers'
// run-ledger pricing charges and move what row-by-row copies in batch
// order move: the same phases, cells, counts, backpressure and sink
// values bit for bit on every fabric, serial and on the pool. The
// per-switch busy totals take each batch's share as one delta, so only
// they may differ in their last bits.
func TestPricedTransfersMatchExecTransfers(t *testing.T) {
	batches := append(pinBatches(17, xbar.WordsPerRow), independentBatch())
	if copyGroups(batches[len(batches)-1]) == nil {
		t.Fatal("the independent batch was priced as dependent")
	}
	for _, topo := range intercon.Names() {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/workers=%d", topo, workers)
			var engines [2]*Engine
			var sinks [2]*obs.Sink
			for i := range engines {
				cfg := chip.Config2GB()
				cfg.Interconnect = chip.InterconnectKind(topo)
				ch, err := chip.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e := New(ch)
				e.Workers = workers
				sinks[i] = obs.NewSink()
				e.Obs = sinks[i]
				for _, id := range pinBlocks {
					b := ch.Block(id)
					for row := 0; row < pinRows; row++ {
						for off := 0; off < xbar.WordsPerRow; off++ {
							b.SetWord(row, off, uint32(id*7919+row*131+off*17+1))
						}
					}
				}
				engines[i] = e
			}
			priced, plain := engines[0], engines[1]
			prices := make([]TransferPrice, len(batches))
			for round := 0; round < 2; round++ {
				for i, batch := range batches {
					a := priced.ExecTransfersPriced("pin", batch, GroupCopies(batch), &prices[i])
					b := plain.ExecTransfers("pin", batch)
					rowCopies(plain, batch)
					if a != b {
						t.Errorf("%s: batch %d phase %+v, ExecTransfers %+v", name, i, a, b)
					}
				}
			}
			for _, id := range pinBlocks {
				if a, b := priced.Chip.Block(id).Snapshot(), plain.Chip.Block(id).Snapshot(); !reflect.DeepEqual(a, b) {
					t.Errorf("%s: block %d cells differ", name, id)
				}
			}
			pr, ur := priced.InterconReport(), plain.InterconReport()
			if pr.Transfers != ur.Transfers || pr.Backpressured != ur.Backpressured || pr.BackpressureSec != ur.BackpressureSec {
				t.Errorf("%s: report %d/%d/%v, ExecTransfers %d/%d/%v", name,
					pr.Transfers, pr.Backpressured, pr.BackpressureSec, ur.Transfers, ur.Backpressured, ur.BackpressureSec)
			}
			for _, busy := range [][2][]float64{{pr.TileSwitchBusy, ur.TileSwitchBusy}, {pr.ChipSwitchBusy, ur.ChipSwitchBusy}} {
				if len(busy[0]) != len(busy[1]) {
					t.Fatalf("%s: %d switches, ExecTransfers %d", name, len(busy[0]), len(busy[1]))
				}
				for s := range busy[0] {
					if !CheckClose(busy[0][s], busy[1][s], 1e-12) {
						t.Errorf("%s: switch %d busy %v s, ExecTransfers %v s", name, s, busy[0][s], busy[1][s])
					}
				}
			}
			if a, b := sinks[0].Reg.Snapshot(), sinks[1].Reg.Snapshot(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: sink snapshots differ:\n%v\n%v", name, a, b)
			}
		}
	}
}

// A copy that reads a cell another copy of the batch writes, or that
// leaves its row, keeps the batch serial; so does a copy onto itself.
func TestCopyGroupsIndependence(t *testing.T) {
	cases := []struct {
		name   string
		trs    []RowTransfer
		groups int
	}{
		{"disjoint", []RowTransfer{
			{SrcBlock: 0, SrcRow: 0, DstBlock: 1, DstRow: 0, Words: 4},
			{SrcBlock: 0, SrcRow: 1, DstBlock: 2, DstRow: 0, Words: 4},
			{SrcBlock: 0, SrcRow: 2, DstBlock: 1, DstRow: 1, Words: 4}}, 2},
		{"same block, other columns", []RowTransfer{
			{SrcBlock: 3, SrcRow: 5, SrcOff: 0, DstBlock: 3, DstRow: 5, DstOff: 4, Words: 4}}, 1},
		{"read after write", []RowTransfer{
			{SrcBlock: 0, SrcRow: 0, DstBlock: 1, DstRow: 0, DstOff: 2, Words: 2},
			{SrcBlock: 1, SrcRow: 0, SrcOff: 3, DstBlock: 2, DstRow: 0, Words: 1}}, 0},
		{"write after read", []RowTransfer{
			{SrcBlock: 1, SrcRow: 7, SrcOff: 31, DstBlock: 2, DstRow: 0, Words: 1},
			{SrcBlock: 0, SrcRow: 0, DstBlock: 1, DstRow: 7, DstOff: 31, Words: 1}}, 0},
		{"onto itself", []RowTransfer{
			{SrcBlock: 4, SrcRow: 9, SrcOff: 1, DstBlock: 4, DstRow: 9, DstOff: 1, Words: 1}}, 0},
		{"leaves its row", []RowTransfer{
			{SrcBlock: 0, SrcRow: 0, SrcOff: 30, DstBlock: 1, DstRow: 0, Words: 4}}, 0},
	}
	for _, c := range cases {
		if groups := copyGroups(c.trs); len(groups) != c.groups {
			t.Errorf("%s: %d copy groups, want %d", c.name, len(groups), c.groups)
		}
	}
}

// Replays of one stored block price run the same programs and charge what
// ExecBlocks, which prices afresh on every call, charges, serial and on
// the pool, sink included.
func TestPricedBlocksMatchExecBlocks(t *testing.T) {
	const nBlocks = 24
	progs := variedProgs(nBlocks)
	for _, workers := range []int{1, 2} {
		var engines [2]*Engine
		var sinks [2]*obs.Sink
		for i := range engines {
			e := newEngine(t)
			e.Workers = workers
			sinks[i] = obs.NewSink()
			e.Obs = sinks[i]
			loadOperands(e, nBlocks)
			engines[i] = e
		}
		priced, plain := engines[0], engines[1]
		var price BlocksPrice
		for round := 0; round < 3; round++ {
			a := priced.ExecBlocksPriced("phase", groupPrograms(progs), &price)
			b := plain.ExecBlocks("phase", progs)
			if a != b {
				t.Errorf("workers=%d: phase %+v, ExecBlocks %+v", workers, a, b)
			}
		}
		if priced.InstrCount != plain.InstrCount {
			t.Errorf("workers=%d: %d instructions, ExecBlocks %d", workers, priced.InstrCount, plain.InstrCount)
		}
		for id := 0; id < nBlocks; id++ {
			if a, b := priced.Chip.Block(id).Snapshot(), plain.Chip.Block(id).Snapshot(); !reflect.DeepEqual(a, b) {
				t.Errorf("workers=%d: block %d cells differ", workers, id)
			}
		}
		if a, b := sinks[0].Reg.Snapshot(), sinks[1].Reg.Snapshot(); !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d: sink snapshots differ:\n%v\n%v", workers, a, b)
		}
	}
}

// mustPanic runs f and returns what it panicked with on this goroutine.
// A panic that escaped on another goroutine would end the test binary
// instead.
func mustPanic(t *testing.T, f func()) (v any) {
	t.Helper()
	defer func() { v = recover() }()
	f()
	t.Fatal("call returned without panicking")
	return nil
}

// A job that panics on a pool worker panics again on the caller, once
// every worker has stopped, and nowhere else. Run with -race.
func TestWorkerPanicReachesCaller(t *testing.T) {
	t.Run("pool", func(t *testing.T) {
		// Both jobs wait until both run, so one runs on the caller and
		// one on the worker goroutine, and both panic.
		var started sync.WaitGroup
		started.Add(2)
		v := mustPanic(t, func() {
			pool(nil, 2, 2, func(_, i int) {
				started.Done()
				started.Wait()
				panic(fmt.Sprintf("job %d", i))
			})
		})
		if s, _ := v.(string); !strings.HasPrefix(s, "job ") {
			t.Errorf("panic value %v, want a job's", v)
		}
	})
	t.Run("ExecBlocks", func(t *testing.T) {
		e := newEngine(t)
		e.Workers = 2
		progs := variedProgs(8)
		progs[5] = []isa.Instr{{Op: isa.OpAdd, RowStart: xbar.Rows - 2, RowCount: 4}}
		v := mustPanic(t, func() { e.ExecBlocks("bad-row", progs) })
		if s, _ := v.(string); !strings.Contains(s, "out of bounds") {
			t.Errorf("panic value %v, want the crossbar's row-range panic", v)
		}
	})
	t.Run("ExecTransfersPriced", func(t *testing.T) {
		e := newEngine(t)
		e.Workers = 2
		var batch []RowTransfer
		for dst := 1; dst <= 8; dst++ {
			batch = append(batch, RowTransfer{SrcBlock: 0, DstBlock: dst, Words: 4})
		}
		groups := GroupCopies(batch)
		batch[5].DstRow = xbar.Rows // grouped as in range: its copy panics
		var p TransferPrice
		v := mustPanic(t, func() { e.ExecTransfersPriced("bad-row", batch, groups, &p) })
		if s, _ := v.(string); !strings.Contains(s, "out of bounds") {
			t.Errorf("panic value %v, want the crossbar's row-range panic", v)
		}
	})
}

// runBatch builds seeded transfer batches over pinBlocks: column runs of
// 1 to 70 consecutive rows, 1 to 4 words wide, that cross 32-row tile
// boundaries and sometimes end at the last row, some inside one block;
// and, in turn with them, stretches of transfers that each break a run in
// one way. Copies read only words below 16 and write only words from 16
// on, so no copy reads a cell a copy writes; later copies may overwrite
// earlier ones.
func runBatch(seed int64) []RowTransfer {
	r := rand.New(rand.NewSource(seed))
	var batch []RowTransfer
	for stretch := 0; len(batch) < 600; stretch++ {
		src, dst := pinBlocks[r.Intn(len(pinBlocks))], pinBlocks[r.Intn(len(pinBlocks))]
		if r.Intn(8) == 0 {
			dst = src
		}
		rows, words := 1+r.Intn(70), 2+r.Intn(3)
		if r.Intn(2) == 0 {
			words = 1
		}
		srcRow, dstRow := r.Intn(xbar.Rows-2*rows+2), r.Intn(xbar.Rows-2*rows+2)
		srcOff, dstOff := r.Intn(16-words-rows%8), 16+r.Intn(16-words-rows%8)
		if stretch%9 < 2 && r.Intn(2) == 0 {
			dstRow = xbar.Rows - rows
		}
		// Every kind but the first two breaks the run, in turn by each
		// field a run's transfers share or step by one: rows that step by
		// two, or a field that changes at every other transfer.
		var at func(i int) RowTransfer
		step := func(i int) RowTransfer {
			return RowTransfer{SrcBlock: src, SrcRow: srcRow + i, SrcOff: srcOff,
				DstBlock: dst, DstRow: dstRow + i, DstOff: dstOff, Words: words}
		}
		other, odd := pinBlocks[r.Intn(len(pinBlocks))], func(i int) int { return i % 2 }
		switch stretch % 9 {
		case 0, 1:
			at = step
		case 2:
			at = func(i int) RowTransfer { tr := step(i); tr.SrcRow = srcRow + 2*i; return tr }
		case 3:
			at = func(i int) RowTransfer { tr := step(i); tr.DstRow = dstRow + 2*i; return tr }
		case 4:
			at = func(i int) RowTransfer { tr := step(i); tr.SrcOff += odd(i); return tr }
		case 5:
			at = func(i int) RowTransfer { tr := step(i); tr.DstOff += odd(i); return tr }
		case 6:
			at = func(i int) RowTransfer { tr := step(i); tr.Words += odd(i); return tr }
		case 7:
			at = func(i int) RowTransfer { tr := step(i); tr.SrcBlock = [2]int{src, other}[odd(i)]; return tr }
		case 8:
			at = func(i int) RowTransfer { tr := step(i); tr.DstBlock = [2]int{dst, other}[odd(i)]; return tr }
		}
		for i := 0; i < rows; i++ {
			batch = append(batch, at(i))
		}
	}
	return batch
}

// Replaying a batch as column runs (xbar.Block.CopyRows) leaves the cells
// that row-by-row copies leave, and the phases ExecTransfers prices, on
// every fabric, serial and on the pool.
func TestColumnRunReplayMatchesRowReplay(t *testing.T) {
	batches := [][]RowTransfer{runBatch(1), runBatch(2)}
	for _, topo := range intercon.Names() {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/workers=%d", topo, workers)
			var engines [2]*Engine
			for i := range engines {
				cfg := chip.Config2GB()
				cfg.Interconnect = chip.InterconnectKind(topo)
				ch, err := chip.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				engines[i] = New(ch)
				engines[i].Workers = workers
				for _, id := range pinBlocks {
					b := ch.Block(id)
					for row := 0; row < xbar.Rows; row++ {
						for off := 0; off < xbar.WordsPerRow; off++ {
							b.SetWord(row, off, uint32(id*7919+row*131+off*17+1))
						}
					}
				}
			}
			runs, plain := engines[0], engines[1]
			for i, batch := range batches {
				groups := GroupCopies(batch)
				n := 0
				for _, g := range groups {
					n += len(g)
				}
				if groups == nil || 10*n > 9*len(batch) {
					t.Fatalf("%s: batch %d of %d transfers folds into %d runs", name, i, len(batch), n)
				}
				var p TransferPrice
				a, b := runs.ExecTransfersPriced("runs", batch, groups, &p), plain.ExecTransfers("runs", batch)
				rowCopies(plain, batch)
				if a != b {
					t.Errorf("%s: batch %d phase %+v, ExecTransfers %+v", name, i, a, b)
				}
			}
			for _, id := range pinBlocks {
				if a, b := runs.Chip.Block(id).Snapshot(), plain.Chip.Block(id).Snapshot(); !reflect.DeepEqual(a, b) {
					t.Errorf("%s: block %d cells differ", name, id)
				}
			}
		}
	}
}
