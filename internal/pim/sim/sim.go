// Package sim executes PIM instruction streams on a chip model, producing
// time, energy, and per-phase breakdowns. It is the reproduction's stand-in
// for the paper's cycle-accurate simulator (NVSim + FloatPIM adaptation):
// digital-PIM timing is deterministic per instruction — every arithmetic
// instruction is a fixed bit-serial NOR sequence, every transfer a routed
// switch path — so accumulating per-instruction costs at instruction
// granularity is equivalent to cycle-accurate simulation for these
// workloads.
//
// A block or transfer phase is priced, then replayed: the replay performs
// every data movement and arithmetic operation on real float32 cell
// contents and charges the stored price, which lets tests check a
// PIM-executed dG time-step against the internal/dg reference solver
// node for node. ExecTransfers and ExecBlocksN only price, for the timed
// runner, which moves no data.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/params"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/fault"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/nor"
	"wavepim/internal/pim/xbar"
)

// Phase is one scheduled span of work.
type Phase struct {
	Name    string
	Kind    string // "blocks", "transfer", "dram", "host", "compose"
	Start   float64
	Dur     float64
	EnergyJ float64
}

// End returns the phase end time.
func (p Phase) End() float64 { return p.Start + p.Dur }

// RowTransfer is an inter-block data movement at word granularity: Words
// 32-bit words from (SrcBlock, SrcRow, SrcOff) to (DstBlock, DstRow,
// DstOff), routed through the interconnect.
type RowTransfer struct {
	SrcBlock, SrcRow, SrcOff int
	DstBlock, DstRow, DstOff int
	Words                    int
}

// Engine executes work on a chip and accumulates a timeline.
type Engine struct {
	Chip *chip.Chip
	// Workers > 1 fans the per-block work of block phases across that many
	// goroutines — the software mirror of the chip's defining property that
	// blocks execute in parallel. Results, timeline, and energy are
	// bit-identical to the serial path: per-block contributions are merged
	// in ascending block order regardless of completion order. 0 or 1 keeps
	// the serial path.
	Workers int
	// Obs, when non-nil, receives per-phase spans and counters (phase
	// durations and energies, instruction-class counts, per-block
	// energies, worker-pool occupancy). Nil disables all instrumentation;
	// the nil path is the uninstrumented hot path.
	Obs *obs.Sink

	// SlabWords > 0 routes every functional arithmetic instruction
	// (OpAdd/OpSub/OpMul) through the K-word bit-sliced NOR slab
	// substrate instead of host floating point: operands are gathered
	// into tiles of up to SlabWords*64 lanes, each run over only the
	// words its lanes occupy, and computed by the gate-level
	// IEEE-754 programs of internal/pim/nor, with gate activity
	// accumulated in NORGateStats. An independent phase without a fault
	// injector gathers one instruction's operands from every block of a
	// chunk into one slab call (see ExecBlocksPriced). Results are
	// bit-identical to the host-float path (the substrate's fidelity is
	// property-tested against hardware floats); timing and energy
	// charging are unchanged. 0 keeps the host-float fast path.
	// ExecBlocksN runs no program and ignores the setting.
	SlabWords int
	// norUnits holds one gather/compute unit per pool worker, made on
	// the caller before a phase runs, so staging buffers, slab and header
	// arenas and per-lane scratch are reused: a warm unit allocates
	// nothing. nor sums the gate-level activity the units recorded,
	// collected on the caller after each phase.
	norUnits []*xbar.NORUnit
	nor      nor.Stats

	// Log, when non-nil, receives structured events: one per recovery
	// rung firing (with block, rung, and simulated-time cost). Nil is
	// the silent path. Rung events are emitted from the deterministic
	// post-merge section, so their order is stable across worker counts.
	Log *eventlog.Logger

	// Faults, when non-nil, enables the fault-injection recovery ladder:
	// after every block phase the engine scrubs (ECC), verify-retries
	// failing programs, and remaps blocks that stay uncorrectable onto
	// SparePool. Nil is the golden path.
	Faults *fault.Injector
	// SparePool lists reserved physical block ids, consumed in order by
	// spare-block remapping.
	SparePool  []int
	sparesUsed int
	// pendingFault queues the ECC/retry/remap phases produced inside a
	// block phase; Sequence drains it right after the triggering
	// phase commits, so recovery costs land on the simulated timeline.
	pendingFault []Phase

	// Timeline holds the committed phases; a caller that keeps only recent
	// ones may truncate it. digest (the running TimelineDigest over
	// committed phases) covers every phase the engine committed.
	Timeline    []Phase
	TotalEnergy float64
	clock       float64
	committed   int64
	digest      uint64

	// ctx, when set via SetContext, makes block phases cancellable; the
	// first cancellation error is latched in err (see Err).
	ctx context.Context
	err error

	// Instruction statistics.
	InstrCount int64
	TransferCt int64
	DRAMBytes  int64

	// chipTree routes cross-tile transfers: the same topology kind as the
	// tiles, instantiated over the chip's tiles (the chip-level counterpart
	// of the per-tile networks).
	chipTree intercon.Topology

	// Interconnect congestion accounting — the observables of the
	// estimate -> occupy -> backpressure contention loop, aggregated over
	// every scheduled batch of the run. ExecTransfers streams each batch
	// through net's tile and chip ledgers, whose busy slices sum
	// per-switch busy seconds across all tiles (every tile shares one
	// topology shape) and over the chip-level network. xfer is
	// ExecTransfers' reused price; tileCounts (one per tile, zero between
	// calls) and byTile are priceTransfers' bucketing scratch.
	net                 ledgers
	xfer                TransferPrice
	xferBackpressured   int64
	xferBackpressureSec float64
	tileCounts          []int
	byTile              []int32

	// gen is the remap generation: 1 from New on, bumped by every remap.
	// A price records the generation it was made under, and a replay
	// re-prices a price of another generation (a zero price's is 0).
	// blocks resolves logical block ids for the replays: pricing fills it
	// on the caller's goroutine, never on a pool worker, and a remap
	// empties it.
	gen    uint64
	blocks []*xbar.Block
}

// InterconReport is the run-level congestion summary of the interconnect:
// how many transfers were backpressured behind a busy switch, the total
// wait, and the per-switch busy-second ledgers (index = switch id; tile
// entries sum over all tiles).
type InterconReport struct {
	Topology        string    `json:"topology"`
	Transfers       int64     `json:"transfers"`
	Backpressured   int64     `json:"backpressured"`
	BackpressureSec float64   `json:"backpressure_seconds"`
	TileSwitchBusy  []float64 `json:"tile_switch_busy_seconds"`
	ChipSwitchBusy  []float64 `json:"chip_switch_busy_seconds,omitempty"`
}

// InterconReport snapshots the congestion accounting accumulated so far.
func (e *Engine) InterconReport() InterconReport {
	r := InterconReport{
		Topology:        e.Chip.Config.Interconnect.String(),
		Transfers:       e.TransferCt,
		Backpressured:   e.xferBackpressured,
		BackpressureSec: e.xferBackpressureSec,
	}
	r.TileSwitchBusy = append([]float64(nil), e.net.tileBusy...)
	r.ChipSwitchBusy = append([]float64(nil), e.net.chipBusy...)
	return r
}

// New creates an engine over a chip. The chip-level (inter-tile) network
// matches the configured tile interconnect kind, instantiated over the
// chip's tiles (e.g. a fanout-4 H-tree over tiles, or a single chip-wide
// bus for the Bus design). The chip validated the topology name, so the
// factory cannot fail here.
func New(ch *chip.Chip) *Engine {
	e := &Engine{Chip: ch, gen: 1, tileCounts: make([]int, ch.Config.NumTiles())}
	if n := ch.Config.NumTiles(); n > 1 {
		t, err := intercon.New(string(ch.Config.Interconnect), n,
			intercon.Config{Fanout: ch.Config.Fanout})
		if err != nil {
			panic(err)
		}
		e.chipTree = t
	}
	return e
}

// SetContext installs (or, with nil, removes) the context consulted by
// block phases and the worker pool, and clears the error the previous run
// latched. A run driver sets it once for the whole run.
func (e *Engine) SetContext(ctx context.Context) { e.ctx, e.err = ctx, nil }

// Err returns the first error a block phase latched since the engine was
// built or the last SetContext (a cancellation, or fault.ErrNoSpares), or nil.
func (e *Engine) Err() error { return e.err }

// trackOf maps a phase kind to a stable trace lane, so Chrome renders
// compute, transfer, DRAM, and host activity as separate rows.
func trackOf(kind string) int {
	switch kind {
	case "blocks":
		return 0
	case "transfer":
		return 1
	case "dram":
		return 2
	case "host":
		return 3
	case "fault":
		return 4
	}
	return 5
}

// commit appends a phase at the given start and advances the clock to at
// least its end.
func (e *Engine) commit(p Phase, start float64) Phase {
	p.Start = start
	if p.End() > e.clock {
		e.clock = p.End()
	}
	e.TotalEnergy += p.EnergyJ
	e.Timeline = append(e.Timeline, p)
	e.noteCommit(p)
	if e.Obs != nil {
		e.Obs.Span(p.Name, p.Kind, p.Start, p.Dur, trackOf(p.Kind))
		e.Obs.Histogram("sim.phase.energy_joules." + p.Kind).Observe(p.EnergyJ)
		// One duration histogram per (kind, phase): its _count is the span
		// count and a sum by kind gives the per-kind totals. Both label
		// values are drawn from small enumerated sets (phase names are
		// compiler-fixed kernel stages), so the exposition cardinality
		// stays bounded (DESIGN.md §10).
		e.Obs.HistogramVec("sim.phase.span_seconds", "kind", "phase").
			With(p.Kind, p.Name).Observe(p.Dur)
		e.Obs.Gauge("sim.clock_seconds").Set(e.clock)
		e.Obs.Gauge("sim.total_energy_joules").Set(e.TotalEnergy)
	}
	return p
}

// Sequence lays a phase at the current clock.
func (e *Engine) Sequence(p Phase) Phase {
	out := e.commit(p, e.clock)
	e.drainFaultPhases()
	return out
}

// drainFaultPhases commits the recovery phases queued by the last block
// phase, sequentially after it (the ladder runs after the compute).
func (e *Engine) drainFaultPhases() {
	for len(e.pendingFault) > 0 {
		pf := e.pendingFault
		e.pendingFault = nil
		for _, p := range pf {
			e.commit(p, e.clock)
		}
	}
}

// ---------------------------------------------------------------------------
// Cost model (single source of truth, verified against xbar's accounting)
// ---------------------------------------------------------------------------

// InstrCost returns the latency and energy of one instruction executed in a
// block. rowCount-dependent energy uses the instruction's own row range.
func InstrCost(in isa.Instr) (sec, joules float64) {
	switch in.Op {
	case isa.OpNop:
		return 0, 0
	case isa.OpRead:
		return params.BlockRowReadLatency, params.RowBufferReadEnergyJ
	case isa.OpWrite:
		return params.BlockRowWriteLatency, params.RowBufferWriteEnergyJ
	case isa.OpBroadcast:
		return params.BlockRowReadLatency + float64(in.RowCount)*params.BlockRowWriteLatency,
			params.RowBufferReadEnergyJ + float64(in.RowCount)*params.RowBufferWriteEnergyJ
	case isa.OpAdd, isa.OpSub:
		steps := float64(params.NORStepsFPAdd32)
		return steps * params.TNORSeconds, steps * params.EnergyPerNORStep * float64(in.RowCount)
	case isa.OpMul:
		steps := float64(params.NORStepsFPMul32)
		return steps * params.TNORSeconds, steps * params.EnergyPerNORStep * float64(in.RowCount)
	case isa.OpGroupBcast, isa.OpPattern:
		return params.GroupBcastLatencySec, params.GroupBcastEnergyJ
	case isa.OpLUT:
		// Algorithm 1: two reads and one write, plus the one-word transit
		// from the LUT block (charged by the caller via transfer path).
		sec = 2*params.BlockRowReadLatency + params.BlockRowWriteLatency
		joules = 2*params.RowBufferReadEnergyJ + params.RowBufferWriteEnergyJ
		return sec, joules
	case isa.OpMemcpy:
		// Standalone memcpy latency is routing-dependent; ExecTransfers
		// prices full routes. A bare memcpy instruction accounts only the
		// endpoint buffer operations.
		return params.BlockRowReadLatency + params.BlockRowWriteLatency,
			params.RowBufferReadEnergyJ + params.RowBufferWriteEnergyJ
	}
	panic(fmt.Sprintf("sim: unknown opcode %v", in.Op))
}

// ---------------------------------------------------------------------------
// Work executors (they price work; Sequence places it in time)
// ---------------------------------------------------------------------------

// ExecBlocks prices one program per block and replays it once (see
// ExecBlocksPriced): the one-shot form, for phases run a single time,
// which groups blocks that share a program (groupPrograms).
func (e *Engine) ExecBlocks(name string, progs map[int][]isa.Instr) Phase {
	var p BlocksPrice
	return e.ExecBlocksPriced(name, groupPrograms(progs), &p)
}

// blockCost is one block program's nominal cost: its latency and energy
// (LUT transit included), and its instructions, in total and per opcode.
type blockCost struct {
	dur, energy float64
	instrs      int64
	ops         [isa.NumOpcodes]int64
}

// rungCost is one block's recovery-ladder accounting: scrub and retry
// costs are kept out of the block phase's price so the phase stays
// nominal and the overhead lands on dedicated sim.fault.* phases.
type rungCost struct {
	scrubSec, scrubJ                            float64
	retrySec, retryJ                            float64
	detected, corrected, uncorrectable, retries int64
	failed                                      bool
}

// priceProgram is the one pricing function of a block program: it adds
// each instruction's latency and energy, in program order, to *sec and
// *joules (plus the word's transit from the LUT block for OpLUT), and
// counts the instructions into c. A block phase's price is made with it,
// and the recovery ladder prices retries with it.
func (e *Engine) priceProgram(blockID int, prog []isa.Instr, sec, joules *float64, c *blockCost) {
	for _, in := range prog {
		s, j := InstrCost(in)
		*sec += s
		*joules += j
		c.instrs++
		c.ops[in.Op]++
		if in.Op == isa.OpLUT {
			// Transit of the fetched word from the LUT block.
			tsec, tj := e.transferCost(in.LUTBlock, blockID, 1)
			*sec += tsec
			*joules += tj
		}
	}
}

// runProgram performs prog's data effects on every block of bs,
// instruction by instruction, which leaves what running it block by block
// leaves when the blocks' programs are independent (blocksIndependent);
// a per-block job passes one block. With a NOR unit, each arithmetic
// instruction is one slab call over all the blocks (xbar.NORUnit.ArithSel);
// without one it runs in host floating point.
func (e *Engine) runProgram(u *xbar.NORUnit, bs []*xbar.Block, prog []isa.Instr) {
	for i := range prog {
		in := &prog[i]
		op, arith := arithOp(in.Op)
		switch {
		case arith && u != nil:
			u.ArithSel(bs, op, in.RowStart, in.RowCount, in.DstOff, in.SrcOff, in.Src2Off)
		case arith:
			for _, b := range bs {
				b.ArithSel(op, in.RowStart, in.RowCount, in.DstOff, in.SrcOff, in.Src2Off)
			}
		default:
			for _, b := range bs {
				e.execInstr(b, in)
			}
		}
	}
}

// arithOp maps an arithmetic opcode of the ISA to the crossbar's.
func arithOp(op isa.Opcode) (xbar.ArithOp, bool) {
	switch op {
	case isa.OpAdd:
		return xbar.OpAdd, true
	case isa.OpSub:
		return xbar.OpSub, true
	case isa.OpMul:
		return xbar.OpMul, true
	}
	return 0, false
}

// climbLadder runs one block program under the recovery ladder: scrub
// after the program; on uncorrectable errors, rewind and re-execute
// (verify-retry) up to the budget. Retry is only sound for self-contained
// programs — a program touching foreign blocks cannot be rewound locally.
// The program's nominal cost is in its phase's price; each retry is
// priced into r, and its instructions are counted into c.
func (e *Engine) climbLadder(u *xbar.NORUnit, blockID int, prog []isa.Instr, c *blockCost, r *rungCost, maxRetries int) {
	bs := e.blocks[blockID : blockID+1]
	blk := bs[0]
	retriable := progRetriable(blockID, prog)
	var cellSnap []uint32
	var pendSnap map[uint32]uint32
	if retriable && blk.Faults != nil {
		cellSnap = blk.Snapshot()
		pendSnap = blk.Faults.SnapshotPending()
	} else {
		retriable = false
	}
	e.runProgram(u, bs, prog)
	for attempt := 0; ; attempt++ {
		res := blk.Scrub()
		sec, j := fault.ScrubCost(int(res.Corrected))
		if attempt == 0 {
			r.scrubSec += sec
			r.scrubJ += j
		} else {
			r.retrySec += sec
			r.retryJ += j
		}
		r.detected += res.Detected
		r.corrected += res.Corrected
		if res.Uncorrectable == 0 {
			return
		}
		if !retriable || attempt >= maxRetries {
			r.uncorrectable += res.Uncorrectable
			r.failed = true
			return
		}
		r.retries++
		blk.Faults.AddRetry()
		bsec, bj := fault.BackoffCost(attempt + 1)
		r.retrySec += bsec
		r.retryJ += bj
		blk.Restore(cellSnap)
		blk.Faults.RestorePending(pendSnap)
		e.priceProgram(blockID, prog, &r.retrySec, &r.retryJ, c)
		e.runProgram(u, bs, prog)
	}
}

// blockTotals merges per-block costs in ascending block order: the phase
// lasts as long as its longest program and spends the sum of the energies.
func blockTotals(costs []blockCost) (dur, energy float64, instrs int64) {
	for i := range costs {
		if costs[i].dur > dur {
			dur = costs[i].dur
		}
		energy += costs[i].energy
		instrs += costs[i].instrs
	}
	return dur, energy, instrs
}

// mergeLadder merges the ladder accounting in ascending block order (same
// determinism discipline as the main cost merge) and queues the recovery
// phases for the commit that follows this one.
func (e *Engine) mergeLadder(ids []int, rungs []rungCost) {
	var scrubMax, scrubJ, retryMax, retryJ float64
	var detected, corrected, uncorrectable, retries int64
	var failed []int
	for i := range rungs {
		r := &rungs[i]
		if r.scrubSec > scrubMax {
			scrubMax = r.scrubSec
		}
		scrubJ += r.scrubJ
		if r.retrySec > retryMax {
			retryMax = r.retrySec
		}
		retryJ += r.retryJ
		detected += r.detected
		corrected += r.corrected
		uncorrectable += r.uncorrectable
		retries += r.retries
		if r.failed {
			failed = append(failed, ids[i])
		}
	}
	if scrubMax > 0 {
		e.pendingFault = append(e.pendingFault,
			Phase{Name: "sim.fault.ecc", Kind: "fault", Dur: scrubMax, EnergyJ: scrubJ})
	}
	if retryMax > 0 {
		e.pendingFault = append(e.pendingFault,
			Phase{Name: "sim.fault.retry", Kind: "fault", Dur: retryMax, EnergyJ: retryJ})
	}
	if e.Obs != nil {
		for _, c := range []struct {
			name string
			n    int64
		}{
			{"sim.fault.detected", detected},
			{"sim.fault.corrected", corrected},
			{"sim.fault.uncorrectable", uncorrectable},
			{"sim.fault.retries", retries},
		} {
			if c.n > 0 {
				e.Obs.Counter(c.name).Add(c.n)
			}
		}
	}
	// Per-block rung telemetry, emitted in ascending block order so
	// event streams and labeled counters are deterministic across
	// worker counts. MTTR = the simulated time one repair took.
	for i := range rungs {
		r := &rungs[i]
		if r.detected > 0 {
			e.noteRung("ecc", ids[i], r.scrubSec,
				eventlog.Int64("detected", r.detected),
				eventlog.Int64("corrected", r.corrected))
		}
		if r.retries > 0 {
			e.noteRung("retry", ids[i], r.retrySec,
				eventlog.Int64("retries", r.retries))
		}
	}
	if len(failed) > 0 {
		e.remapFailed(failed)
	}
}

// noteBlocks records a block phase's instruction-class counts, per-block
// energies and pool occupancy on the attached sink.
func (e *Engine) noteBlocks(costs []blockCost, parallel bool, workers int) {
	if e.Obs == nil {
		return
	}
	var perOp [isa.NumOpcodes]int64
	blockEnergy := e.Obs.Histogram("sim.block.energy_joules")
	for i := range costs {
		blockEnergy.Observe(costs[i].energy)
		for op, n := range costs[i].ops {
			perOp[op] += n
		}
	}
	for op, n := range perOp {
		if n > 0 {
			e.Obs.Counter("sim.instr." + isa.Opcode(op).String()).Add(n)
		}
	}
	e.Obs.Counter("sim.pool.blocks").Add(int64(len(costs)))
	if parallel {
		e.Obs.Counter("sim.pool.parallel_execs").Inc()
		e.Obs.Gauge("sim.pool.workers").Set(float64(workers))
	} else {
		e.Obs.Counter("sim.pool.serial_execs").Inc()
	}
}

// execWorkers bounds the pool size by the work available.
func (e *Engine) execWorkers(nBlocks int) int {
	w := e.Workers
	if w > nBlocks {
		w = nBlocks
	}
	return w
}

// blocksIndependent reports whether every program touches only its own
// block's mutable state, so the programs can run concurrently, or
// instruction by instruction across blocks. ids lists every block of the
// phase in ascending order. Reads from foreign LUT blocks are allowed as
// long as no program in the phase runs on (and could mutate) those
// blocks; memcpy and foreign-row read/write force the serial path.
func blocksIndependent(groups []ProgGroup, ids []int) bool {
	for _, g := range groups {
		for _, in := range g.Prog {
			switch in.Op {
			case isa.OpMemcpy:
				return false
			case isa.OpRead, isa.OpWrite:
				for _, id := range g.Blocks {
					if in.Block != id {
						return false
					}
				}
			case isa.OpLUT:
				if i := sort.SearchInts(ids, in.LUTBlock); i < len(ids) && ids[i] == in.LUTBlock {
					return false
				}
			}
		}
	}
	return true
}

// progRetriable reports whether a block program can be verify-retried: it
// must touch no foreign mutable state (LUT reads are fine — LUT blocks are
// static within a phase), so a cell Snapshot of this one block captures
// everything the replay needs.
func progRetriable(blockID int, prog []isa.Instr) bool {
	for _, in := range prog {
		switch in.Op {
		case isa.OpMemcpy:
			return false
		case isa.OpRead, isa.OpWrite:
			if in.Block != blockID {
				return false
			}
		}
	}
	return true
}

// noteRung records one recovery-rung firing on one block: a structured
// event (block, rung, simulated-time cost) plus the rung-labeled counter
// and MTTR histogram. rung is one of "ecc", "retry", "remap" (the engine
// rungs); the Session adds "rollback".
func (e *Engine) noteRung(rung string, block int, costSec float64, extra ...eventlog.Field) {
	if e.Obs != nil {
		e.Obs.CounterVec("sim.fault.rung_events", "rung").With(rung).Inc()
		e.Obs.HistogramVec("sim.fault.mttr_seconds", "rung").With(rung).Observe(costSec)
		e.Obs.CounterVec("sim.fault.block_events", "block").With(BlockLabel(block)).Inc()
	}
	if e.Log != nil {
		fields := append([]eventlog.Field{
			eventlog.Str("rung", rung),
			eventlog.Int("block", block),
			eventlog.F64("cost_seconds", costSec),
		}, extra...)
		e.Log.Info("fault.rung", fields...)
	}
}

// blockLabelCap bounds the cardinality of block-indexed metric labels:
// blocks past the cap share one overflow label (events still carry the
// exact id). See DESIGN.md §10 for the cardinality rules.
const blockLabelCap = 32

// BlockLabel renders a block id as a cardinality-capped label value.
func BlockLabel(id int) string {
	if id < blockLabelCap {
		return strconv.Itoa(id)
	}
	return "overflow"
}

// remapFailed migrates blocks that stayed uncorrectable after the retry
// budget onto spare blocks: the spare receives an ECC-corrected copy of
// every word, the chip's logical->physical table redirects the id, and the
// migration cost (full-array read + routed transfer + write) is queued as
// a sim.fault.remap phase. A remap changes routes and blocks, so it empties
// the block table and makes every earlier price stale. Spare exhaustion
// latches fault.ErrNoSpares.
func (e *Engine) remapFailed(failed []int) {
	for _, logical := range failed {
		if e.sparesUsed >= len(e.SparePool) {
			if e.err == nil {
				e.err = fmt.Errorf("sim: block %d uncorrectable after retries: %w", logical, fault.ErrNoSpares)
			}
			if e.Log != nil {
				e.Log.Error("fault.no_spares",
					eventlog.Int("block", logical),
					eventlog.Int("spares_used", e.sparesUsed))
			}
			return
		}
		spare := e.SparePool[e.sparesUsed]
		e.sparesUsed++
		oldPhys := e.Chip.Physical(logical)
		old := e.Chip.Block(logical)
		sb := e.Chip.Block(spare)
		for r := 0; r < xbar.Rows; r++ {
			for o := 0; o < xbar.WordsPerRow; o++ {
				sb.SetWord(r, o, old.CorrectedWord(r, o))
			}
		}
		if old.Faults != nil {
			old.Faults.ClearPending()
		}
		tsec, tj := e.transferCost(oldPhys, spare, xbar.Rows*xbar.WordsPerRow)
		sec := float64(xbar.Rows)*(params.BlockRowReadLatency+params.BlockRowWriteLatency) + tsec
		joules := float64(xbar.Rows)*(params.RowBufferReadEnergyJ+params.RowBufferWriteEnergyJ) + tj
		e.Chip.SetRemap(logical, spare)
		clear(e.blocks)
		e.gen++
		e.Faults.NoteRemap(logical)
		e.pendingFault = append(e.pendingFault,
			Phase{Name: "sim.fault.remap", Kind: "fault", Dur: sec, EnergyJ: joules})
		if e.Obs != nil {
			e.Obs.Counter("sim.fault.remaps").Inc()
		}
		e.noteRung("remap", logical, sec, eventlog.Int("spare", spare))
	}
}

// FaultReport assembles the per-run fault summary: the injector's
// aggregated counters plus the engine-owned spare-pool accounting. Zero
// value without an injector.
func (e *Engine) FaultReport() fault.Report {
	if e.Faults == nil {
		return fault.Report{}
	}
	r := e.Faults.Report()
	r.SparesUsed = e.sparesUsed
	r.SparesLeft = len(e.SparePool) - e.sparesUsed
	return r
}

// ExecBlocksN prices one program template executed concurrently by n
// identical blocks — the timed runner's fast path for large models, where
// the per-block programs of a kernel phase are the same template
// replicated across every element (duration is one program; energy scales
// with n). It runs no program.
func (e *Engine) ExecBlocksN(name string, prog []isa.Instr, n int, avgLUTHops int) Phase {
	var dur, energy float64
	for _, in := range prog {
		sec, j := InstrCost(in)
		dur += sec
		energy += j
		if in.Op == isa.OpLUT && avgLUTHops > 0 {
			dur += float64(avgLUTHops) * params.SwitchHopLatencySec
			energy += float64(avgLUTHops) * params.SwitchHopEnergyJ
		}
	}
	e.InstrCount += int64(len(prog) * n)
	if e.Obs != nil {
		var perOp [isa.NumOpcodes]int64
		for _, in := range prog {
			perOp[in.Op]++
		}
		for op, c := range perOp {
			if c > 0 {
				e.Obs.Counter("sim.instr." + isa.Opcode(op).String()).Add(c * int64(n))
			}
		}
		e.Obs.Counter("sim.pool.blocks").Add(int64(n))
	}
	return Phase{Name: name, Kind: "blocks", Dur: dur, EnergyJ: energy * float64(n)}
}

// execInstr performs the data effects of one instruction of block b's
// program; runProgram runs the arithmetic ones.
func (e *Engine) execInstr(b *xbar.Block, in *isa.Instr) {
	switch in.Op {
	case isa.OpNop:
	case isa.OpRead:
		e.Chip.Block(in.Block).ReadRow(in.Row)
	case isa.OpWrite:
		e.Chip.Block(in.Block).WriteRow(in.Row)
	case isa.OpBroadcast:
		b.Broadcast(in.Row, in.RowStart, in.RowCount, in.SrcOff, in.DstOff, in.WordCount)
	case isa.OpGroupBcast:
		b.GroupBcast(in.RowStart, in.RowCount, in.SrcOff, in.DstOff, in.Stride, in.GroupSize, in.GroupIdx)
	case isa.OpPattern:
		b.Pattern(in.Row, in.RowStart, in.RowCount, in.SrcOff, in.DstOff, in.Stride, in.GroupSize)
	case isa.OpLUT:
		// Algorithm 1 on real data.
		lut := e.Chip.Block(in.LUTBlock)
		idx := b.GetWord(in.Row, in.SrcOff)
		content := lut.GetWord(int(idx)/params.WordsPerRow, int(idx)%params.WordsPerRow)
		b.SetWord(in.Row, in.DstOff, content)
	case isa.OpMemcpy:
		row := e.Chip.Block(in.Block).ReadRow(in.Row)
		dst := e.Chip.Block(in.DstBlock)
		dst.LoadBuffer(row)
		dst.WriteRow(in.DstRow)
	}
}

// norUnitsFor returns a NOR unit for each of n pool workers, made on the
// caller; nil on the host-float path.
func (e *Engine) norUnitsFor(n int) []*xbar.NORUnit {
	if e.SlabWords <= 0 {
		return nil
	}
	if len(e.norUnits) > 0 && e.norUnits[0].SlabWords() != e.SlabWords {
		e.norUnits = nil
	}
	for len(e.norUnits) < n {
		e.norUnits = append(e.norUnits, xbar.NewNORUnit(e.SlabWords))
	}
	return e.norUnits[:n]
}

// collectNOR moves the gate activity the units recorded into the engine's
// totals, once every worker has returned.
func (e *Engine) collectNOR(units []*xbar.NORUnit) {
	for _, u := range units {
		e.nor.Add(u.C.Stats)
		u.C.Stats = nor.Stats{}
	}
}

// NORGateStats returns the gate-level activity accumulated by the slab
// substrate (all zero on the host-float path).
func (e *Engine) NORGateStats() nor.Stats { return e.nor }

// transferCost prices a words-long movement between two blocks, including
// the cross-tile path when they live in different tiles.
func (e *Engine) transferCost(src, dst int, words int) (sec, joules float64) {
	if src == dst {
		return 0, 0
	}
	hops := e.routeHops(src, dst)
	payloads := (words + params.PayloadWords - 1) / params.PayloadWords
	sec = float64(payloads+hops-1) * params.SwitchHopLatencySec
	joules = float64(words*hops) * params.SwitchHopEnergyJ
	return sec, joules
}

// routeHops counts the switches between two blocks: the tile topology path
// when co-resident; otherwise both tiles' full depth plus the chip-level
// router hop.
func (e *Engine) routeHops(src, dst int) int {
	st, dt := e.Chip.TileOf(src), e.Chip.TileOf(dst)
	if st == dt {
		return len(e.Chip.Topology(st).AppendPath(nil, e.Chip.LocalID(src), e.Chip.LocalID(dst)))
	}
	depth := e.Chip.Topology(st).EgressHops()
	return 2*depth + 1 // up the source tile, across the chip router, down the destination tile
}

// ExecTransfers prices a batch of inter-block transfers into the run's
// contention ledgers and charges it, moving no words: the timed runner's
// call. Intra-tile batches use the tile's contention-aware topology
// schedule and different tiles overlap; cross-tile transfers are
// scheduled on the chip-level H-tree over tiles (disjoint tile subtrees
// overlap, shared routes contend). ExecTransfersPriced moves the words.
func (e *Engine) ExecTransfers(name string, trs []RowTransfer) Phase {
	e.priceTransfers(trs, &e.net, &e.xfer)
	return e.chargeTransfers(name, &e.xfer)
}

// ExecDRAM prices an off-chip HBM2 transaction (batching's store/load
// steps, Figure 6). Energy charges the DRAM's power for the duration.
func (e *Engine) ExecDRAM(name string, bytes int64) Phase {
	e.DRAMBytes += bytes
	dur := float64(bytes) / params.OffChipBandwidthBps
	return Phase{Name: name, Kind: "dram", Dur: dur, EnergyJ: params.OffChipDRAMPowerW * dur}
}

// ExecHost prices host CPU preprocessing: the sqrt and inverse units
// offloaded per Section 4.3, spread across the host's cores.
func (e *Engine) ExecHost(name string, sqrts, inverses int) Phase {
	h := params.ARMCortexA72
	work := float64(sqrts)*h.SqrtLatencySec + float64(inverses)*h.InverseLatencySec
	dur := work / float64(h.Cores)
	return Phase{Name: name, Kind: "host", Dur: dur, EnergyJ: h.PowerW * dur}
}

// StaticEnergy returns the chip's static (leakage + host idle + DRAM
// standby) energy over the current makespan; callers add it to TotalEnergy
// for whole-run energy accounting.
func (e *Engine) StaticEnergy() float64 {
	return chip.SystemPowerW(e.Chip.Config) * e.clock
}

// TotalTime returns the current makespan.
func (e *Engine) TotalTime() float64 { return e.clock }

// noteCommit folds a committed phase into the running digest.
func (e *Engine) noteCommit(p Phase) {
	if e.committed == 0 {
		e.digest = fnvOffset
	}
	e.committed++
	e.digest = digestPhase(e.digest, p)
}

// PublishTotals writes the engine's run-level aggregates into the attached
// sink's registry (no-op without a sink). Run drivers call it once at the
// end of a run. The clock gauges (time, total and static energy) are
// written only when the engine committed a phase: a driver
// that prices its run without committing phases (the timed runner) leaves
// the clock at 0, which is no measurement of that run.
func (e *Engine) PublishTotals() {
	if e.Obs == nil {
		return
	}
	if e.committed > 0 {
		e.Obs.Gauge("sim.total_seconds").Set(e.TotalTime())
		e.Obs.Gauge("sim.total_energy_joules").Set(e.TotalEnergy)
		e.Obs.Gauge("sim.static_energy_joules").Set(e.StaticEnergy())
	}
	e.Obs.Gauge("sim.instr_count").Set(float64(e.InstrCount))
	e.Obs.Gauge("sim.transfer_count").Set(float64(e.TransferCt))
	e.Obs.Gauge("sim.dram_bytes").Set(float64(e.DRAMBytes))
	e.Obs.Gauge("sim.workers").Set(float64(e.Workers))
	e.Obs.Gauge("sim.intercon.backpressured").Set(float64(e.xferBackpressured))
	e.Obs.Gauge("sim.intercon.backpressure_seconds").Set(e.xferBackpressureSec)
	if e.SlabWords > 0 {
		st := e.NORGateStats()
		e.Obs.Gauge("sim.nor.slab_words").Set(float64(e.SlabWords))
		e.Obs.Gauge("sim.nor.gate_evals").Set(float64(st.NOREvals))
		e.Obs.Gauge("sim.nor.gate_sets").Set(float64(st.Sets))
		e.Obs.Gauge("sim.nor.gate_resets").Set(float64(st.Resets))
	}
	if e.Faults != nil {
		r := e.FaultReport()
		e.Obs.Gauge("sim.fault.flips").Set(float64(r.Counts.Flips))
		e.Obs.Gauge("sim.fault.stuck_writes").Set(float64(r.Counts.StuckWrites))
		e.Obs.Gauge("sim.fault.wearouts").Set(float64(r.Counts.Wearouts))
		e.Obs.Gauge("sim.fault.spares_used").Set(float64(r.SparesUsed))
		e.Obs.Gauge("sim.fault.rollbacks").Set(float64(r.Rollbacks))
	}
}

// TimelineDigest is an FNV-1a hash of every phase the engine committed
// (names, kinds, and exact float bit patterns of
// start/duration/energy), kept as a running hash so it covers phases a
// caller dropped from Timeline. Two runs are timeline-identical iff their
// digests match — the reproducibility check of the fault determinism gate.
func (e *Engine) TimelineDigest() uint64 {
	if e.committed == 0 {
		return fnvOffset
	}
	return e.digest
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digestPhase folds one phase into the FNV-1a hash h: its name and kind,
// each followed by a zero byte, then the little-endian bits of its start,
// duration and energy.
func digestPhase(h uint64, p Phase) uint64 {
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= fnvPrime
	}
	for _, s := range [2]string{p.Name, p.Kind} {
		for i := 0; i < len(s); i++ {
			mixByte(s[i])
		}
		mixByte(0)
	}
	for _, v := range [3]float64{p.Start, p.Dur, p.EnergyJ} {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			mixByte(byte(b >> s))
		}
	}
	return h
}
