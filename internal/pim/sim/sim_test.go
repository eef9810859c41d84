package sim

import (
	"math"
	"testing"

	"wavepim/internal/params"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	ch, err := chip.New(chip.Config512MB())
	if err != nil {
		t.Fatal(err)
	}
	return New(ch)
}

// InstrCost must agree exactly with xbar's own accounting for every
// instruction kind — the single-source-of-truth invariant.
func TestInstrCostMatchesXbar(t *testing.T) {
	cases := []struct {
		name string
		in   isa.Instr
		run  func(b *xbar.Block)
	}{
		{"read", isa.Instr{Op: isa.OpRead, Row: 5},
			func(b *xbar.Block) { b.ReadRow(5) }},
		{"write", isa.Instr{Op: isa.OpWrite, Row: 5},
			func(b *xbar.Block) { b.WriteRow(5) }},
		{"add", isa.Instr{Op: isa.OpAdd, RowStart: 0, RowCount: 100, DstOff: 2, SrcOff: 0, Src2Off: 1},
			func(b *xbar.Block) { b.ArithSel(xbar.OpAdd, 0, 100, 2, 0, 1) }},
		{"mul", isa.Instr{Op: isa.OpMul, RowStart: 0, RowCount: 64, DstOff: 2, SrcOff: 0, Src2Off: 1},
			func(b *xbar.Block) { b.ArithSel(xbar.OpMul, 0, 64, 2, 0, 1) }},
		{"broadcast", isa.Instr{Op: isa.OpBroadcast, Row: 512, RowStart: 0, RowCount: 512, SrcOff: 0, DstOff: 4, WordCount: 2},
			func(b *xbar.Block) { b.Broadcast(512, 0, 512, 0, 4, 2) }},
	}
	for _, c := range cases {
		b := xbar.New(0)
		c.run(b)
		sec, joules := InstrCost(c.in)
		if !CheckClose(sec, b.Stats.BusySec, 1e-12) {
			t.Errorf("%s: InstrCost time %g, xbar %g", c.name, sec, b.Stats.BusySec)
		}
		if !CheckClose(joules, b.Stats.EnergyJ, 1e-12) {
			t.Errorf("%s: InstrCost energy %g, xbar %g", c.name, joules, b.Stats.EnergyJ)
		}
	}
}

func TestExecBlocksParallelAcrossBlocks(t *testing.T) {
	e := newEngine(t)
	add := isa.Instr{Op: isa.OpAdd, RowCount: 512, DstOff: 2, SrcOff: 0, Src2Off: 1}
	// One block with 2 adds vs eight blocks with 2 adds each: same phase
	// duration (blocks run concurrently), 8x the energy.
	p1 := e.ExecBlocks("one", map[int][]isa.Instr{0: {add, add}})
	progs := make(map[int][]isa.Instr)
	for b := 0; b < 8; b++ {
		progs[b] = []isa.Instr{add, add}
	}
	p8 := e.ExecBlocks("eight", progs)
	if !CheckClose(p1.Dur, p8.Dur, 1e-12) {
		t.Errorf("block parallelism broken: %g vs %g", p1.Dur, p8.Dur)
	}
	if !CheckClose(p8.EnergyJ, 8*p1.EnergyJ, 1e-12) {
		t.Errorf("energy should scale with blocks: %g vs %g", p8.EnergyJ, p1.EnergyJ)
	}
}

func TestSequenceAndParallelTimeline(t *testing.T) {
	e := newEngine(t)
	add := isa.Instr{Op: isa.OpAdd, RowCount: 1, DstOff: 2, SrcOff: 0, Src2Off: 1}
	mul := isa.Instr{Op: isa.OpMul, RowCount: 1, DstOff: 2, SrcOff: 0, Src2Off: 1}
	a := e.ExecBlocks("a", map[int][]isa.Instr{0: {add}})
	b := e.ExecBlocks("b", map[int][]isa.Instr{0: {mul}})
	e.Sequence(a)
	e.Sequence(b)
	if !CheckClose(e.TotalTime(), a.Dur+b.Dur, 1e-12) {
		t.Errorf("sequence time %g want %g", e.TotalTime(), a.Dur+b.Dur)
	}
	e.Reset()
	a = e.ExecBlocks("a", map[int][]isa.Instr{0: {add}})
	b = e.ExecBlocks("b", map[int][]isa.Instr{0: {mul}})
	e.Parallel(a, b)
	if !CheckClose(e.TotalTime(), math.Max(a.Dur, b.Dur), 1e-12) {
		t.Errorf("parallel time %g want %g", e.TotalTime(), math.Max(a.Dur, b.Dur))
	}
}

func TestFunctionalArithmetic(t *testing.T) {
	e := newEngine(t)
	b := e.Chip.Block(3)
	b.SetFloat(0, 0, 1.5)
	b.SetFloat(0, 1, 2.5)
	e.Sequence(e.ExecBlocks("add", map[int][]isa.Instr{
		3: {{Op: isa.OpAdd, RowStart: 0, RowCount: 1, DstOff: 2, SrcOff: 0, Src2Off: 1}},
	}))
	if got := b.GetFloat(0, 2); got != 4 {
		t.Errorf("functional add got %g", got)
	}
	if e.InstrCount != 1 {
		t.Errorf("InstrCount = %d", e.InstrCount)
	}
}

func TestFunctionalTransfer(t *testing.T) {
	e := newEngine(t)
	src := e.Chip.Block(0)
	src.SetFloat(7, 4, 9.25)
	trs := []RowTransfer{{SrcBlock: 0, SrcRow: 7, SrcOff: 4, DstBlock: 5, DstRow: 2, DstOff: 10, Words: 1}}
	var price TransferPrice
	p := e.ExecTransfersPriced("move", trs, GroupCopies(trs), &price)
	e.Sequence(p)
	if got := e.Chip.Block(5).GetFloat(2, 10); got != 9.25 {
		t.Errorf("transfer got %g", got)
	}
	if p.Dur <= 0 || p.EnergyJ <= 0 {
		t.Error("transfer must cost time and energy")
	}
}

func TestTransfersDisjointTilesOverlap(t *testing.T) {
	e := newEngine(t)
	// Same-tile pair vs two pairs in different tiles: different tiles
	// should overlap (same makespan as a single pair, modulo endpoint
	// costs).
	one := e.ExecTransfers("one", []RowTransfer{
		{SrcBlock: 0, SrcRow: 0, DstBlock: 1, DstRow: 0, Words: 32},
	})
	two := e.ExecTransfers("two", []RowTransfer{
		{SrcBlock: 0, SrcRow: 0, DstBlock: 1, DstRow: 0, Words: 32},
		{SrcBlock: 256, SrcRow: 0, DstBlock: 257, DstRow: 0, Words: 32},
	})
	if !CheckClose(one.Dur, two.Dur, 1e-9) {
		t.Errorf("cross-tile overlap broken: %g vs %g", one.Dur, two.Dur)
	}
}

func TestCrossTileSameRouteContends(t *testing.T) {
	e := newEngine(t)
	tr := RowTransfer{SrcBlock: 0, SrcRow: 0, DstBlock: 300, DstRow: 0, Words: 32}
	one := e.ExecTransfers("one", []RowTransfer{tr})
	two := e.ExecTransfers("two", []RowTransfer{tr, tr})
	if two.Dur <= one.Dur {
		t.Errorf("same-route cross-tile transfers should contend: %g vs %g", one.Dur, two.Dur)
	}
}

func TestCrossTileDisjointRoutesOverlap(t *testing.T) {
	// Transfers between disjoint tile pairs ride disjoint chip-tree
	// subtrees and should not serialize against each other. 512MB has 16
	// tiles; tiles (0,1) and (4,5) sit under different level-0 chip
	// switches.
	e := newEngine(t)
	a := RowTransfer{SrcBlock: 0, DstBlock: 300, Words: 32}             // tile 0 -> 1
	b := RowTransfer{SrcBlock: 4 * 256, DstBlock: 5*256 + 3, Words: 32} // tile 4 -> 5
	one := e.ExecTransfers("one", []RowTransfer{a})
	both := e.ExecTransfers("both", []RowTransfer{a, b})
	if both.Dur > one.Dur*1.2 {
		t.Errorf("disjoint cross-tile transfers should overlap: %g vs %g", one.Dur, both.Dur)
	}
}

func TestLUTInstructionFunctional(t *testing.T) {
	e := newEngine(t)
	lutBlock := 10
	// LUT content: entry 77 = bits of 3.5. Entry k lives at row k/32,
	// word k%32 (Algorithm 1's LUTBlockID*2^20 + index*32 addressing).
	e.Chip.Block(lutBlock).SetFloat(77/32, 77%32, 3.5)
	// The executing block holds index 77 at (row 4, off 1).
	b := e.Chip.Block(2)
	b.SetWord(4, 1, 77)
	p := e.ExecBlocks("lut", map[int][]isa.Instr{
		2: {{Op: isa.OpLUT, Row: 4, SrcOff: 1, LUTBlock: lutBlock, DstOff: 9}},
	})
	e.Sequence(p)
	if got := b.GetFloat(4, 9); got != 3.5 {
		t.Errorf("LUT fetched %g, want 3.5", got)
	}
	// Cost must include the inter-block transit, so it exceeds the bare
	// 2-read+1-write floor.
	floor := 2*params.BlockRowReadLatency + params.BlockRowWriteLatency
	if p.Dur <= floor {
		t.Errorf("LUT duration %g should exceed the row-op floor %g (transit missing)", p.Dur, floor)
	}
}

func TestExecDRAM(t *testing.T) {
	e := newEngine(t)
	p := e.ExecDRAM("load", 900e9/2) // half a second's worth at 900 GB/s
	if !CheckClose(p.Dur, 0.5, 1e-12) {
		t.Errorf("DRAM duration %g want 0.5", p.Dur)
	}
	if !CheckClose(p.EnergyJ, params.OffChipDRAMPowerW*0.5, 1e-12) {
		t.Errorf("DRAM energy %g", p.EnergyJ)
	}
	if e.DRAMBytes != 450e9 {
		t.Errorf("DRAMBytes = %d", e.DRAMBytes)
	}
}

func TestExecHost(t *testing.T) {
	e := newEngine(t)
	p := e.ExecHost("sqrt", 1000, 1000)
	h := params.ARMCortexA72
	want := (1000*h.SqrtLatencySec + 1000*h.InverseLatencySec) / float64(h.Cores)
	if !CheckClose(p.Dur, want, 1e-12) {
		t.Errorf("host duration %g want %g", p.Dur, want)
	}
}

func TestStaticEnergyScalesWithTime(t *testing.T) {
	e := newEngine(t)
	e.Sequence(e.ExecDRAM("x", 9e9)) // 10 ms
	se := e.StaticEnergy()
	want := chip.SystemPowerW(e.Chip.Config) * e.TotalTime()
	if !CheckClose(se, want, 1e-12) {
		t.Errorf("static energy %g want %g", se, want)
	}
}

func TestPhaseTimeBreakdown(t *testing.T) {
	e := newEngine(t)
	e.Sequence(e.ExecDRAM("a", 9e9))
	e.Sequence(e.ExecHost("b", 10, 10))
	if e.PhaseTime("dram") <= 0 || e.PhaseTime("host") <= 0 {
		t.Error("phase breakdown missing kinds")
	}
	if e.PhaseTime("blocks") != 0 {
		t.Error("no block phases were run")
	}
}

func TestResetClearsState(t *testing.T) {
	e := newEngine(t)
	e.Sequence(e.ExecDRAM("a", 9e9))
	e.Reset()
	if e.TotalTime() != 0 || e.TotalEnergy != 0 || len(e.Timeline) != 0 || e.DRAMBytes != 0 {
		t.Error("Reset incomplete")
	}
}

// ExecEncoded decodes and executes a real 64-bit word stream with the
// same results as the decoded-instruction path.
func TestExecEncodedMatchesExecBlocks(t *testing.T) {
	e := newEngine(t)
	b := e.Chip.Block(2)
	b.SetFloat(0, 0, 1.5)
	b.SetFloat(0, 1, 2.0)
	prog := []isa.Instr{
		{Op: isa.OpAdd, RowStart: 0, RowCount: 1, DstOff: 2, SrcOff: 0, Src2Off: 1},
		{Op: isa.OpMul, RowStart: 0, RowCount: 1, DstOff: 3, SrcOff: 2, Src2Off: 1},
	}
	words, err := isa.Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.ExecEncoded("enc", map[int][]uint64{2: words})
	if err != nil {
		t.Fatal(err)
	}
	e.Sequence(p)
	if got := b.GetFloat(0, 3); got != 7 {
		t.Errorf("encoded execution got %g want 7", got)
	}
	// Cost identical to the decoded path.
	e2 := newEngine(t)
	p2 := e2.ExecBlocks("dec", map[int][]isa.Instr{2: prog})
	if !CheckClose(p.Dur, p2.Dur, 1e-12) || !CheckClose(p.EnergyJ, p2.EnergyJ, 1e-12) {
		t.Error("encoded and decoded paths disagree on cost")
	}
}

func TestExecEncodedRejectsGarbage(t *testing.T) {
	e := newEngine(t)
	if _, err := e.ExecEncoded("bad", map[int][]uint64{0: {^uint64(0)}}); err == nil {
		t.Error("garbage word should fail to decode")
	}
}
