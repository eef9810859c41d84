package sim

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"wavepim/internal/params"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

// A phase's cost is a pure function of its transfer list or programs, the
// chip configuration, the topology and the remap table. A caller that
// replays the same phases many times on one engine prices each once
// (PriceTransfers, PriceBlocks) and replays it with ExecTransfersPriced or
// ExecBlocksPriced, which do only the data work and charge the stored
// price. ExecTransfers and ExecBlocksCtx run the same pricing code on every
// call. A replay is exact only while the remap table stays as it was at
// pricing time: callers must not replay on an engine with a fault
// injector, whose spare-block remapping changes routes and blocks.

// ledgers are the tile and chip contention ledgers a transfer pricing
// streams through, made on first use over the per-switch busy slices they
// accumulate into.
type ledgers struct {
	tile, chip         *intercon.Ledger
	tileBusy, chipBusy []float64
}

// ledgerOn returns *lg, made on first use over *busy (made too when nil,
// so a ledger made after a replay keeps adding to the replay's totals).
func ledgerOn(lg **intercon.Ledger, busy *[]float64, topo intercon.Topology) *intercon.Ledger {
	if *lg == nil {
		if *busy == nil {
			*busy = make([]float64, topo.SwitchCount())
		}
		*lg = intercon.NewLedger(topo, *busy)
	}
	return *lg
}

// addBusy adds a batch's per-switch busy seconds into a run-level ledger
// slice, making it on first use.
func addBusy(dst *[]float64, delta []float64) {
	if delta == nil {
		return
	}
	if *dst == nil {
		*dst = make([]float64, len(delta))
	}
	for i, v := range delta {
		(*dst)[i] += v
	}
}

// tileSpan is the index range [first, end) of one tile's intra-tile
// transfers in the batch being priced; end == 0 means none.
type tileSpan struct{ first, end int }

// TransferPrice is what one transfer batch costs apart from the words it
// moves: the phase's duration and energy, its transfer and word counts,
// and each contention ledger's backpressure in ExecTransfers' merge order
// (ascending tile, then the chip network). A price from PriceTransfers
// also holds the per-switch busy seconds the batch adds and, when its
// copies are independent, their grouping by destination block.
type TransferPrice struct {
	dur, energy        float64
	transfers, words   int64
	backpressured      int64
	backpressureSec    []float64 // one entry per ledger schedule, in merge order
	tileBusy, chipBusy []float64
	groups             CopyGroups
}

// xferRun is the index range [start, end) of transfers in a batch.
type xferRun struct{ start, end int }

// priceTransfers is the one pricing function of a transfer batch. A first
// pass in batch order streams cross-tile transfers into the chip ledger
// and notes each tile's index range. Tiles then stream through the one
// tile ledger in ascending order: all tiles add into one busy slice, whose
// float sums must not depend on how the batch interleaves its tiles.
// ExecTransfers prices into the engine's own ledgers; PriceTransfers into
// fresh ones, so their busy slices hold the batch's own share.
func (e *Engine) priceTransfers(trs []RowTransfer, l *ledgers, p *TransferPrice) {
	*p = TransferPrice{backpressureSec: p.backpressureSec[:0], transfers: int64(len(trs))}
	var crossEndpoints float64
	ncross := 0
	for i, tr := range trs {
		p.words += int64(tr.Words)
		st, dt := e.Chip.TileOf(tr.SrcBlock), e.Chip.TileOf(tr.DstBlock)
		if st == dt {
			sp := &e.tileSpans[st]
			if sp.end == 0 {
				sp.first = i
			}
			sp.end = i + 1
		} else if e.chipTree != nil {
			ncross++
			ledgerOn(&l.chip, &l.chipBusy, e.chipTree).Add(intercon.Transfer{Src: st, Dst: dt, Words: tr.Words})
			// The legs inside the two tiles (leaf to tile gateway and back).
			payloads := (tr.Words + params.PayloadWords - 1) / params.PayloadWords
			crossEndpoints += float64(2 * e.Chip.Topology(st).EgressHops() * payloads)
		}
	}
	var dur, energy float64
	note := func(s intercon.Schedule) {
		p.backpressured += int64(s.Backpressured)
		p.backpressureSec = append(p.backpressureSec, s.BackpressureSec)
	}
	for tile, sp := range e.tileSpans {
		if sp.end == 0 {
			continue
		}
		e.tileSpans[tile] = tileSpan{}
		// Every tile shares one topology (chip.New), so one ledger and
		// one busy slice serve them all.
		tl := ledgerOn(&l.tile, &l.tileBusy, e.Chip.Topology(tile))
		for _, tr := range trs[sp.first:sp.end] {
			if e.Chip.TileOf(tr.SrcBlock) == tile && e.Chip.TileOf(tr.DstBlock) == tile {
				tl.Add(intercon.Transfer{
					Src: e.Chip.LocalID(tr.SrcBlock), Dst: e.Chip.LocalID(tr.DstBlock), Words: tr.Words})
			}
		}
		s := tl.Schedule()
		tl.Reset()
		note(s)
		if s.Makespan > dur {
			dur = s.Makespan
		}
		energy += s.EnergyJ
	}
	if ncross > 0 {
		s := l.chip.Schedule()
		l.chip.Reset()
		note(s)
		// Tile-internal legs of cross-tile routes add energy and latency.
		legEnergy := crossEndpoints * params.PayloadWords * params.SwitchHopEnergyJ
		crossDur := s.Makespan + crossEndpoints/float64(ncross)*params.SwitchHopLatencySec
		energy += s.EnergyJ + legEnergy
		if crossDur > dur {
			dur = crossDur
		}
	}
	// Endpoint row buffer operations (read at source, write at target) are
	// part of every transfer (Figure 3's I0 and I4).
	if len(trs) > 0 {
		dur += params.BlockRowReadLatency + params.BlockRowWriteLatency
		energy += float64(len(trs)) * (params.RowBufferReadEnergyJ + params.RowBufferWriteEnergyJ)
	}
	p.dur, p.energy = dur, energy
}

// chargeTransfers adds a priced batch to the engine's run totals and sink
// and returns its unplaced phase.
func (e *Engine) chargeTransfers(name string, p *TransferPrice) Phase {
	e.TransferCt += p.transfers
	e.xferBackpressured += p.backpressured
	for _, s := range p.backpressureSec {
		e.xferBackpressureSec += s
	}
	addBusy(&e.net.tileBusy, p.tileBusy)
	addBusy(&e.net.chipBusy, p.chipBusy)
	if e.Obs != nil {
		e.Obs.Counter("sim.transfer.count").Add(p.transfers)
		e.Obs.Counter("sim.transfer.words").Add(p.words)
	}
	return Phase{Name: name, Kind: "transfer", Dur: p.dur, EnergyJ: p.energy}
}

// PriceTransfers prices a transfer batch once, for ExecTransfersPriced to
// replay on this engine. groups is the batch's GroupCopies: it depends
// only on the batch, so a caller that prices one batch on many engines
// groups it once.
func (e *Engine) PriceTransfers(trs []RowTransfer, groups CopyGroups) *TransferPrice {
	p := &TransferPrice{}
	var l ledgers
	e.priceTransfers(trs, &l, p)
	p.tileBusy, p.chipBusy, p.groups = l.tileBusy, l.chipBusy, groups
	return p
}

// CopyGroups holds, per destination block of a transfer batch, its runs
// of consecutive transfers in batch order; nil when some copy reads a
// cell another copy writes, and the copies must run in batch order.
type CopyGroups [][]xferRun

// GroupCopies returns a transfer batch's CopyGroups.
func GroupCopies(trs []RowTransfer) CopyGroups { return copyGroups(trs) }

// copyGroups splits a batch's copies into one group per destination block
// when no copy writes a (block, row, column) cell that any copy in the
// batch reads. Groups then write disjoint blocks and read only cells no
// copy writes, so they give the same cells in any order; within a group
// the copies keep batch order. It returns nil when a read meets a write,
// or a copy leaves its row (the serial replay then fails as
// ExecTransfers would).
func copyGroups(trs []RowTransfer) CopyGroups {
	fits := func(row, off, n int) bool {
		return row >= 0 && row < xbar.Rows && off >= 0 && n >= 0 && off+n <= xbar.WordsPerRow
	}
	cell := func(row, off int) int { return row*xbar.WordsPerRow + off }
	written := map[int][]uint64{}
	for _, tr := range trs {
		if !fits(tr.DstRow, tr.DstOff, tr.Words) || !fits(tr.SrcRow, tr.SrcOff, tr.Words) {
			return nil
		}
		w := written[tr.DstBlock]
		if w == nil {
			w = make([]uint64, xbar.Rows*xbar.WordsPerRow/64)
			written[tr.DstBlock] = w
		}
		for c := cell(tr.DstRow, tr.DstOff); c < cell(tr.DstRow, tr.DstOff+tr.Words); c++ {
			w[c/64] |= 1 << (c % 64)
		}
	}
	for _, tr := range trs {
		w := written[tr.SrcBlock]
		if w == nil {
			continue
		}
		for c := cell(tr.SrcRow, tr.SrcOff); c < cell(tr.SrcRow, tr.SrcOff+tr.Words); c++ {
			if w[c/64]&(1<<(c%64)) != 0 {
				return nil
			}
		}
	}
	var runs []xferRun
	for i, tr := range trs {
		if n := len(runs); n > 0 && trs[runs[n-1].start].DstBlock == tr.DstBlock {
			runs[n-1].end = i + 1
			continue
		}
		runs = append(runs, xferRun{i, i + 1})
	}
	dst := func(r xferRun) int { return trs[r.start].DstBlock }
	sort.SliceStable(runs, func(a, b int) bool { return dst(runs[a]) < dst(runs[b]) })
	var groups CopyGroups
	for len(runs) > 0 {
		n := 1
		for n < len(runs) && dst(runs[n]) == dst(runs[0]) {
			n++
		}
		groups, runs = append(groups, runs[:n]), runs[n:]
	}
	return groups
}

// ExecTransfersPriced replays a batch priced by PriceTransfers: it moves
// the words and charges the stored price, with the same counters
// ExecTransfers emits. blocks resolves every block id the batch names.
// With Workers > 1 and independent copies, each destination block's
// copies run as one job on the worker pool.
func (e *Engine) ExecTransfersPriced(name string, trs []RowTransfer, p *TransferPrice, blocks []*xbar.Block) Phase {
	if !e.Functional {
		return e.chargeTransfers(name, p)
	}
	if workers := e.execWorkers(len(p.groups)); workers > 1 {
		pool(nil, len(p.groups), workers, func(g int) {
			for _, r := range p.groups[g] {
				dst := blocks[trs[r.start].DstBlock]
				for _, tr := range trs[r.start:r.end] {
					dst.CopyWords(tr.DstRow, tr.DstOff, blocks[tr.SrcBlock], tr.SrcRow, tr.SrcOff, tr.Words)
				}
			}
		})
	} else {
		for _, tr := range trs {
			blocks[tr.DstBlock].CopyWords(tr.DstRow, tr.DstOff, blocks[tr.SrcBlock], tr.SrcRow, tr.SrcOff, tr.Words)
		}
	}
	return e.chargeTransfers(name, p)
}

// BlocksPrice is what one block phase costs apart from its data work: its
// sorted block ids, whether its programs may run concurrently, each
// block's nominal cost, and the merged phase totals.
type BlocksPrice struct {
	ids         []int
	independent bool
	costs       []blockCost
	dur, energy float64
	instrs      int64
}

// PriceBlocks prices a block phase once, for ExecBlocksPriced to replay on
// this engine.
func (e *Engine) PriceBlocks(progs map[int][]isa.Instr) *BlocksPrice {
	p := &BlocksPrice{ids: sortedBlocks(progs), independent: blocksIndependent(progs)}
	p.costs = make([]blockCost, len(p.ids))
	for i, id := range p.ids {
		c := &p.costs[i]
		e.priceProgram(id, progs[id], &c.dur, &c.energy, c)
	}
	p.dur, p.energy, p.instrs = blockTotals(p.costs)
	return p
}

// ExecBlocksPriced replays a block phase priced by PriceBlocks: it runs
// the programs, on the worker pool when they are independent, and charges
// the stored price with the same counters ExecBlocks emits. blocks
// resolves every block id the phase runs on. Cancellation follows
// ExecBlocks: once the context installed with SetContext is done, no
// further program starts, the error is latched and a zero Phase returned.
// The recovery ladder is not part of a replay.
func (e *Engine) ExecBlocksPriced(name string, progs map[int][]isa.Instr, p *BlocksPrice, blocks []*xbar.Block) Phase {
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := e.execWorkers(len(p.ids))
	parallel := workers > 1 && p.independent
	if !parallel {
		workers = 1
	}
	if e.Functional {
		pool(ctx.Done(), len(p.ids), workers, func(i int) {
			id := p.ids[i]
			e.runProgram(blocks[id], progs[id])
		})
	}
	if err := ctx.Err(); err != nil {
		if e.err == nil {
			e.err = err
		}
		return Phase{}
	}
	e.InstrCount += p.instrs
	e.noteBlocks(p.costs, parallel, workers)
	return Phase{Name: name, Kind: "blocks", Dur: p.dur, EnergyJ: p.energy}
}

// pool runs job(0), …, job(n-1) on the caller and up to workers-1 more
// goroutines, which claim indices in order; with workers <= 1 the caller
// runs them in order alone. Once done is closed no further job starts. A
// panicking job stops the pool and its panic is raised again on the
// caller after every worker has returned, so it unwinds the caller's
// stack, and reaches its recover, as a serial panic would.
func pool(done <-chan struct{}, n, workers int, job func(int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return
			default:
			}
			job(i)
		}
		return
	}
	r := &poolRun{done: done, n: n, job: job}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			r.work()
		}()
	}
	r.work()
	r.wg.Wait()
	if r.stop.Load() {
		panic(r.panicked)
	}
}

// poolRun is the shared state of one pool call: the next index to claim
// and the first panic a job raised.
type poolRun struct {
	done     <-chan struct{}
	n        int
	job      func(int)
	next     atomic.Int64
	stop     atomic.Bool
	panicked any
	wg       sync.WaitGroup
}

// work claims and runs jobs until none is left, done is closed, or a job
// has panicked; it recovers its own job's panic for pool to raise again.
func (r *poolRun) work() {
	defer func() {
		if v := recover(); v != nil && r.stop.CompareAndSwap(false, true) {
			r.panicked = v
		}
	}()
	for !r.stop.Load() {
		select {
		case <-r.done:
			return
		default:
		}
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		r.job(i)
	}
}
