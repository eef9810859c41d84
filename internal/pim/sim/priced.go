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
// chip configuration, the topology and the remap table. So every phase
// that moves data runs one way: the caller keeps a price per phase
// (TransferPrice, BlocksPrice, zero until first used), and each replay
// (ExecTransfersPriced, ExecBlocksPriced) does only the data work and
// charges the stored price. A price records the remap generation it was
// made under; a spare-block remap changes routes and blocks, so a replay
// of a price made before it prices the phase again first. The recovery
// ladder runs inside the block replay and prices only its retries.
// ExecTransfers prices a batch into the run's ledgers and moves nothing:
// the timed runner's call.

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

// TransferPrice is what one transfer batch costs apart from the words it
// moves: the phase's duration and energy, its transfer and word counts,
// and each contention ledger's backpressure in ExecTransfers' merge order
// (ascending tile, then the chip network). A replay's price also holds
// the per-switch busy seconds the batch adds and the remap generation it
// was made under. The zero value is a price not yet made.
type TransferPrice struct {
	dur, energy        float64
	transfers, words   int64
	backpressured      int64
	backpressureSec    []float64 // one entry per ledger schedule, in merge order
	tileBusy, chipBusy []float64
	gen                uint64
}

// xferRun is the index range [start, end) of a column run in a batch:
// consecutive transfers between the same two blocks, at the same offsets
// and width, whose source and destination rows each go up by one.
type xferRun struct{ start, end int }

// priceTransfers is the one pricing function of a transfer batch. A first
// pass in batch order streams cross-tile transfers into the chip ledger
// and counts each tile's intra-tile transfers; a second pass buckets
// those by tile, a stable counting sort. Tiles stream through the one tile
// ledger in ascending order, each in batch order: all tiles add into one
// busy slice, whose float sums must not depend on how the batch
// interleaves its tiles. ExecTransfers prices into the engine's own
// ledgers; priceTransferReplay into fresh ones, so their busy slices hold
// the batch's own share.
func (e *Engine) priceTransfers(trs []RowTransfer, l *ledgers, p *TransferPrice) {
	*p = TransferPrice{backpressureSec: p.backpressureSec[:0], transfers: int64(len(trs))}
	var crossEndpoints float64
	ncross, counts := 0, e.tileCounts
	for _, tr := range trs {
		p.words += int64(tr.Words)
		st, dt := e.Chip.TileOf(tr.SrcBlock), e.Chip.TileOf(tr.DstBlock)
		if st == dt {
			counts[st]++
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
	// counts becomes each tile's first slot in byTile, then its end.
	next := 0
	for tile, n := range counts {
		counts[tile], next = next, next+n
	}
	if cap(e.byTile) < next {
		e.byTile = make([]int32, next)
	}
	byTile := e.byTile[:next]
	for i := range trs {
		tr := &trs[i]
		if st := e.Chip.TileOf(tr.SrcBlock); st == e.Chip.TileOf(tr.DstBlock) {
			byTile[counts[st]] = int32(i)
			counts[st]++
		}
	}
	first := 0
	for tile, end := range counts {
		counts[tile] = 0
		if end == first {
			continue
		}
		// Every tile shares one topology (chip.New), so one ledger and
		// one busy slice serve them all.
		tl := ledgerOn(&l.tile, &l.tileBusy, e.Chip.Topology(tile))
		for _, i := range byTile[first:end] {
			tr := &trs[i]
			tl.Add(intercon.Transfer{
				Src: e.Chip.LocalID(tr.SrcBlock), Dst: e.Chip.LocalID(tr.DstBlock), Words: tr.Words})
		}
		first = end
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

// priceTransferReplay prices a batch into p for ExecTransfersPriced and
// resolves the blocks it names.
func (e *Engine) priceTransferReplay(trs []RowTransfer, p *TransferPrice) {
	var l ledgers
	e.priceTransfers(trs, &l, p)
	p.tileBusy, p.chipBusy, p.gen = l.tileBusy, l.chipBusy, e.gen
	for i := range trs {
		e.resolve(trs[i].SrcBlock)
		e.resolve(trs[i].DstBlock)
	}
}

// resolve fills the block table's entry for a logical block id.
func (e *Engine) resolve(id int) {
	if id >= len(e.blocks) {
		e.blocks = append(e.blocks, make([]*xbar.Block, id+1-len(e.blocks))...)
	}
	if e.blocks[id] == nil {
		e.blocks[id] = e.Chip.Block(id)
	}
}

// CopyGroups holds, per destination block of a transfer batch, its column
// runs in batch order; nil when some copy reads a cell another copy
// writes, and the copies must run in batch order.
type CopyGroups [][]xferRun

// GroupCopies returns a transfer batch's CopyGroups.
func GroupCopies(trs []RowTransfer) CopyGroups { return copyGroups(trs) }

// copyGroups splits a batch's copies into one group per destination block
// when no copy writes a (block, row, column) cell that any copy in the
// batch reads. Groups then write disjoint blocks and read only cells no
// copy writes, so they give the same cells in any order; within a group
// the copies keep batch order. Each group folds its consecutive copies
// into column runs (xferRun), which a replay copies a word column at a
// time: a run writes each of its cells once and reads none that a copy
// writes, so that order leaves the same cells as row order. It returns
// nil when a read meets a write, or a copy leaves its row (the serial
// replay then fails as ExecTransfers would).
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
		if n := len(runs); n > 0 && i > 0 && continuesRun(trs[i-1], tr) {
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

// continuesRun reports whether tr extends the column run whose last
// transfer is prev.
func continuesRun(prev, tr RowTransfer) bool {
	return tr.SrcBlock == prev.SrcBlock && tr.DstBlock == prev.DstBlock &&
		tr.SrcOff == prev.SrcOff && tr.DstOff == prev.DstOff && tr.Words == prev.Words &&
		tr.SrcRow == prev.SrcRow+1 && tr.DstRow == prev.DstRow+1
}

// ExecTransfersPriced moves a batch's words and charges its price p, with
// the same counters ExecTransfers emits; a zero or stale p is priced
// first. groups is the batch's GroupCopies, which depends only on the
// batch: a caller that replays one batch on many engines groups it once.
// Independent copies move a column run per call (xbar.Block.CopyRows),
// each destination block's runs as one job on the worker pool when
// Workers > 1; dependent ones move a row per call, in batch order.
func (e *Engine) ExecTransfersPriced(name string, trs []RowTransfer, groups CopyGroups, p *TransferPrice) Phase {
	if p.gen != e.gen {
		e.priceTransferReplay(trs, p)
	}
	blocks := e.blocks
	switch workers := e.execWorkers(len(groups)); {
	case groups == nil:
		for _, tr := range trs {
			blocks[tr.DstBlock].CopyWords(tr.DstRow, tr.DstOff, blocks[tr.SrcBlock], tr.SrcRow, tr.SrcOff, tr.Words)
		}
	case workers > 1:
		pool(nil, len(groups), workers, func(_, g int) { copyRuns(trs, groups[g], blocks) })
	default:
		for _, runs := range groups {
			copyRuns(trs, runs, blocks)
		}
	}
	return e.chargeTransfers(name, p)
}

// copyRuns moves one destination block's column runs, in order.
func copyRuns(trs []RowTransfer, runs []xferRun, blocks []*xbar.Block) {
	for _, r := range runs {
		tr := &trs[r.start]
		blocks[tr.DstBlock].CopyRows(tr.DstRow, tr.DstOff, blocks[tr.SrcBlock], tr.SrcRow, tr.SrcOff, tr.Words, r.end-r.start)
	}
}

// ProgGroup is one distinct program of a block phase and the blocks that
// run it, in ascending order: the chip's controller sends each of its
// instructions to all of them at once (Section 4.1).
type ProgGroup struct {
	Prog   []isa.Instr
	Blocks []int
}

// groupPrograms turns per-block programs into the phase's ProgGroups: one
// group per distinct program (the same backing array and length), ordered
// by first block.
func groupPrograms(progs map[int][]isa.Instr) []ProgGroup {
	ids := make([]int, 0, len(progs))
	for id := range progs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	type key struct {
		first *isa.Instr
		n     int
	}
	var groups []ProgGroup
	index := map[key]int{}
	for _, id := range ids {
		prog := progs[id]
		k := key{n: len(prog)}
		if len(prog) > 0 {
			k.first = &prog[0]
		}
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, ProgGroup{Prog: prog})
		}
		groups[g].Blocks = append(groups[g].Blocks, id)
	}
	return groups
}

// BlocksPrice is what one block phase costs apart from its data work: its
// block ids in ascending order and each one's program, whether the
// programs may run concurrently, each block's nominal cost, the merged
// phase totals and the remap generation it was made under. A phase whose
// replay runs instruction-major on the NOR slab (see chunkWorkers) also
// holds its chunks and the worker count they were cut for. The zero
// value is a price not yet made.
type BlocksPrice struct {
	ids         []int
	progs       [][]isa.Instr
	independent bool
	chunks      []blockChunk
	chunkedFor  int
	costs       []blockCost
	dur, energy float64
	instrs      int64
	gen         uint64
}

// blockChunk is one pool job of an instruction-major replay: a program
// and a share of the blocks that run it.
type blockChunk struct {
	prog   []isa.Instr
	blocks []*xbar.Block
}

// chunkWorkers is the number of pool workers an independent phase's
// groups are cut into chunks for, or 0 when the phase keeps per-block
// jobs: a phase replays instruction-major only on the NOR slab, whose
// calls widen with the blocks they gather, when its programs are
// independent, and with no fault injector, whose ladder rewinds one block
// at a time.
func (e *Engine) chunkWorkers(independent bool) int {
	if e.SlabWords <= 0 || !independent || e.Faults != nil {
		return 0
	}
	return max(e.Workers, 1)
}

// priceBlocks prices a block phase into p and resolves its blocks. Each
// block's program is priced on its own, since its LUT transits depend on
// where it sits, and the costs are kept in ascending block order, the
// order every merge follows.
func (e *Engine) priceBlocks(groups []ProgGroup, p *BlocksPrice) {
	type entry struct {
		id   int
		prog []isa.Instr
	}
	var all []entry
	for _, g := range groups {
		for _, id := range g.Blocks {
			all = append(all, entry{id, g.Prog})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	*p = BlocksPrice{ids: make([]int, len(all)), progs: make([][]isa.Instr, len(all)), gen: e.gen}
	for i, en := range all {
		p.ids[i], p.progs[i] = en.id, en.prog
	}
	p.independent = blocksIndependent(groups, p.ids)
	p.costs = make([]blockCost, len(p.ids))
	for i, id := range p.ids {
		e.resolve(id)
		c := &p.costs[i]
		e.priceProgram(id, p.progs[i], &c.dur, &c.energy, c)
	}
	p.dur, p.energy, p.instrs = blockTotals(p.costs)
	if w := e.chunkWorkers(p.independent); w > 0 {
		p.chunks, p.chunkedFor = e.cutChunks(groups, w), w
	}
}

// cutChunks splits each group's blocks, in order, into one chunk per
// worker (fewer when the group has fewer blocks), sizes differing by at
// most one.
func (e *Engine) cutChunks(groups []ProgGroup, workers int) []blockChunk {
	var chunks []blockChunk
	for _, g := range groups {
		bs := make([]*xbar.Block, len(g.Blocks))
		for i, id := range g.Blocks {
			bs[i] = e.blocks[id]
		}
		n := min(workers, len(bs))
		for c := 0; c < n; c++ {
			chunks = append(chunks, blockChunk{g.Prog, bs[c*len(bs)/n : (c+1)*len(bs)/n]})
		}
	}
	return chunks
}

// ExecBlocksPriced runs each group's program on its blocks, all blocks in
// parallel (the chip's defining property), and charges the phase's price
// p: its duration is the longest program's and its energy the sum. A zero
// or stale p is priced first; so is one whose chunks were cut for another
// worker count or path.
//
// A phase with chunks runs one pool job per chunk, which runs its program
// one instruction at a time across its blocks (runProgram); any other
// phase runs one job per block. With Workers > 1 and programs that touch
// only their own block, the jobs run on a goroutine pool; the charge stays
// deterministic because the price merged the per-block costs in ascending
// block order. A program that panics on a pool worker panics again on the
// caller (see pool).
//
// Under a fault injector whose policy enables ECC, each program runs
// under the recovery ladder (climbLadder), whose scrub, retry and remap
// phases are queued for the commit that follows this phase.
//
// Cancellation: once the context installed with SetContext is done, no
// further job starts, the error is latched (see Err) and a zero Phase
// returned; the chip is left partially updated, as a real abort would.
func (e *Engine) ExecBlocksPriced(name string, groups []ProgGroup, p *BlocksPrice) Phase {
	if p.gen != e.gen || p.chunkedFor != e.chunkWorkers(p.independent) {
		e.priceBlocks(groups, p)
	}
	ctx := e.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	costs, blocks := p.costs, e.blocks
	ladder := e.Faults != nil && e.Faults.Recovery().ECC
	var rungs []rungCost
	maxRetries := 0
	if ladder {
		// Retried instructions count into a copy of the nominal costs.
		costs, rungs = append([]blockCost(nil), p.costs...), make([]rungCost, len(p.ids))
		maxRetries = e.Faults.Recovery().MaxRetries
	}
	jobs := len(p.ids)
	if p.chunks != nil {
		jobs = len(p.chunks)
	}
	workers := e.execWorkers(jobs)
	parallel := workers > 1 && p.independent
	if !parallel {
		workers = 1
	}
	units := e.norUnitsFor(workers)
	pool(ctx.Done(), jobs, workers, func(w, i int) {
		var u *xbar.NORUnit
		if units != nil {
			u = units[w]
		}
		if p.chunks != nil {
			e.runProgram(u, p.chunks[i].blocks, p.chunks[i].prog)
			return
		}
		id := p.ids[i]
		if ladder {
			e.climbLadder(u, id, p.progs[i], &costs[i], &rungs[i], maxRetries)
			return
		}
		e.runProgram(u, blocks[id:id+1], p.progs[i])
	})
	e.collectNOR(units)
	if err := ctx.Err(); err != nil {
		if e.err == nil {
			e.err = err
		}
		return Phase{}
	}
	instrs := p.instrs
	if ladder {
		_, _, instrs = blockTotals(costs)
		e.mergeLadder(p.ids, rungs)
	}
	e.InstrCount += instrs
	e.noteBlocks(costs, parallel, workers)
	return Phase{Name: name, Kind: "blocks", Dur: p.dur, EnergyJ: p.energy}
}

// pool runs job(w, 0), …, job(w, n-1) on the caller (worker w = 0) and
// up to workers-1 more goroutines (w = 1, 2, …), which claim indices in
// order; with workers <= 1 the caller runs them in order alone. w lets a
// job use state its worker owns. Once done is closed no further job starts. A
// panicking job stops the pool and its panic is raised again on the
// caller after every worker has returned, so it unwinds the caller's
// stack, and reaches its recover, as a serial panic would.
func pool(done <-chan struct{}, n, workers int, job func(w, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return
			default:
			}
			job(0, i)
		}
		return
	}
	r := &poolRun{done: done, n: n, job: job}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			r.work(w)
		}()
	}
	r.work(0)
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
	job      func(w, i int)
	next     atomic.Int64
	stop     atomic.Bool
	panicked any
	wg       sync.WaitGroup
}

// work claims and runs jobs as worker w until none is left, done is
// closed, or a job has panicked; it recovers its own job's panic for pool
// to raise again.
func (r *poolRun) work(w int) {
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
		r.job(w, i)
	}
}
