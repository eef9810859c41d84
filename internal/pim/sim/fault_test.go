package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/fault"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

// faultedEngine builds an engine with an injector attached to
// every block the chip materializes, plus a spare pool.
func faultedEngine(t *testing.T, cfg fault.Config, rec fault.Recovery, spares []int, workers int) *Engine {
	t.Helper()
	ch, err := chip.New(chip.Config512MB())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(cfg, rec)
	ch.SetBlockHook(func(b *xbar.Block) { b.Faults = inj.ForBlock(b.ID) })
	e := New(ch)
	e.Faults = inj
	e.SparePool = spares
	e.Workers = workers
	return e
}

// loadAndAdd seeds rows of two operand columns on the given blocks and
// returns a self-contained (retriable, parallel-safe) add program per block.
func loadAndAdd(e *Engine, blocks, rows int) map[int][]isa.Instr {
	progs := make(map[int][]isa.Instr, blocks)
	for b := 0; b < blocks; b++ {
		blk := e.Chip.Block(b)
		for r := 0; r < rows; r++ {
			blk.SetFloat(r, 0, float32(r)+0.25)
			blk.SetFloat(r, 1, float32(b)+0.5)
		}
		progs[b] = []isa.Instr{{Op: isa.OpAdd, RowStart: 0, RowCount: rows, DstOff: 2, SrcOff: 0, Src2Off: 1}}
	}
	return progs
}

// TestLadderScrubsTransients: transient flips during a block phase are
// detected by the post-phase scrub, corrections land, and the recovery cost
// appears as a dedicated sim.fault.ecc phase after the block phase.
func TestLadderScrubsTransients(t *testing.T) {
	e := faultedEngine(t, fault.Config{Seed: 3, FlipProb: 0.03}, fault.DefaultRecovery(), []int{100, 101, 102, 103}, 1)
	progs := loadAndAdd(e, 4, 64)
	e.Sequence(e.ExecBlocks("add", progs))
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	r := e.FaultReport()
	if r.Counts.Flips == 0 || r.Counts.Detected == 0 || r.Counts.Corrected == 0 {
		t.Fatalf("ladder did not engage: %s", r)
	}
	var sawBlocks, sawECC bool
	for _, p := range e.Timeline {
		switch {
		case p.Kind == "blocks":
			sawBlocks = true
		case p.Name == "sim.fault.ecc":
			sawECC = true
			if !sawBlocks {
				t.Fatal("ECC phase committed before the block phase it follows")
			}
			if p.Dur <= 0 || p.EnergyJ <= 0 {
				t.Fatalf("ECC phase carries no cost: %+v", p)
			}
		}
	}
	if !sawECC {
		t.Fatal("no sim.fault.ecc phase on the timeline")
	}
}

// TestLadderSerialParallelIdentical: the same seeded scenario must produce
// bit-identical timelines and fault reports whether blocks run on one
// worker or eight — fault decisions are hashes, not schedule artifacts.
func TestLadderSerialParallelIdentical(t *testing.T) {
	run := func(workers int) (uint64, []byte) {
		e := faultedEngine(t, fault.Config{Seed: 11, FlipProb: 0.03, StuckProb: 0.001},
			fault.DefaultRecovery(), []int{100, 101, 102, 103, 104, 105, 106, 107}, workers)
		progs := loadAndAdd(e, 8, 64)
		for i := 0; i < 3; i++ {
			e.Sequence(e.ExecBlocks("add", progs))
		}
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(e.FaultReport(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return e.TimelineDigest(), b
	}
	dSerial, rSerial := run(1)
	dPar, rPar := run(8)
	if dSerial != dPar {
		t.Fatalf("timeline digests diverge: serial %016x parallel %016x", dSerial, dPar)
	}
	if !bytes.Equal(rSerial, rPar) {
		t.Fatalf("fault reports diverge:\n%s\nvs\n%s", rSerial, rPar)
	}
}

// TestRemapAndSpareExhaustion: a block whose stuck bits defeat ECC past the
// retry budget is migrated to a spare (logical id redirected, sim.fault.remap
// on the timeline); when the spare fails too and the pool is empty, the
// engine latches fault.ErrNoSpares.
func TestRemapAndSpareExhaustion(t *testing.T) {
	rec := fault.DefaultRecovery()
	rec.MaxRetries = 1
	e := faultedEngine(t, fault.Config{Seed: 5, StuckProb: 1}, rec, []int{40}, 1)
	progs := loadAndAdd(e, 1, 64)

	e.Sequence(e.ExecBlocks("add", progs))
	if err := e.Err(); err != nil {
		t.Fatalf("first failure should heal via the spare: %v", err)
	}
	if got := e.Chip.Physical(0); got != 40 {
		t.Fatalf("logical block 0 resolves to physical %d, want spare 40", got)
	}
	r := e.FaultReport()
	if r.Remaps != 1 || r.SparesUsed != 1 || r.SparesLeft != 0 {
		t.Fatalf("spare accounting wrong: %s", r)
	}
	var sawRemap bool
	for _, p := range e.Timeline {
		if p.Name == "sim.fault.remap" {
			sawRemap = true
			if p.Dur <= 0 || p.EnergyJ <= 0 {
				t.Fatalf("remap phase carries no cost: %+v", p)
			}
		}
	}
	if !sawRemap {
		t.Fatal("no sim.fault.remap phase on the timeline")
	}

	// The spare is just as defective (StuckProb=1) and the pool is empty.
	e.Sequence(e.ExecBlocks("add", progs))
	if err := e.Err(); !errors.Is(err, fault.ErrNoSpares) {
		t.Fatalf("want ErrNoSpares after pool exhaustion, got %v", err)
	}
}

// TestProgRetriable: only self-contained programs may be verify-retried.
func TestProgRetriable(t *testing.T) {
	add := isa.Instr{Op: isa.OpAdd, RowCount: 4, DstOff: 2}
	cases := []struct {
		name string
		prog []isa.Instr
		want bool
	}{
		{"self-contained", []isa.Instr{add, {Op: isa.OpRead, Block: 7, Row: 1}}, true},
		{"foreign read", []isa.Instr{add, {Op: isa.OpRead, Block: 8, Row: 1}}, false},
		{"foreign write", []isa.Instr{{Op: isa.OpWrite, Block: 9, Row: 1}}, false},
		{"memcpy", []isa.Instr{{Op: isa.OpMemcpy, Block: 7, DstBlock: 8}}, false},
		{"lut", []isa.Instr{{Op: isa.OpLUT, LUTBlock: 3, Row: 0}}, true},
	}
	for _, c := range cases {
		if got := progRetriable(7, c.prog); got != c.want {
			t.Errorf("%s: progRetriable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNilInjectorNoFaultPhases: without an injector the ladder is fully off
// — no fault phases, empty report, digest equal to a second identical run.
func TestNilInjectorNoFaultPhases(t *testing.T) {
	run := func() *Engine {
		e := newEngine(t)
		progs := loadAndAdd(e, 4, 64)
		e.Sequence(e.ExecBlocks("add", progs))
		return e
	}
	a, b := run(), run()
	for _, p := range a.Timeline {
		if p.Kind == "fault" {
			t.Fatalf("fault phase %q on a fault-free timeline", p.Name)
		}
	}
	if r := a.FaultReport(); r.Counts != (fault.Counts{}) || r.Remaps != 0 || r.SparesUsed != 0 {
		t.Fatalf("fault-free engine reported %s", r)
	}
	if a.TimelineDigest() != b.TimelineDigest() {
		t.Fatal("fault-free runs are not reproducible")
	}
}

// TestReplayRepricesAfterRemap: a remap changes routes and blocks, so the
// prices made before it go stale. Replaying them after a remap must charge
// what fresh pricing charges and move and compute on the spare, not on the
// retired block.
func TestReplayRepricesAfterRemap(t *testing.T) {
	// Blocks 0 and 5 share tile 0; spare 300 sits on tile 1, so the remap
	// turns the copy into a cross-tile one.
	e := faultedEngine(t, fault.Config{}, fault.Recovery{}, []int{300}, 1)
	trs := []RowTransfer{{SrcBlock: 0, SrcRow: 1, DstBlock: 5, DstRow: 6, Words: 4}}
	progs := map[int][]isa.Instr{5: {{Op: isa.OpAdd, RowStart: 0, RowCount: 4, DstOff: 2, SrcOff: 0, Src2Off: 1}}}
	src := e.Chip.Block(0)
	load := func(b *xbar.Block, base float32) {
		for r := 0; r < 4; r++ {
			src.SetFloat(1, r, base+float32(r))
			b.SetFloat(r, 0, base)
			b.SetFloat(r, 1, float32(r))
		}
	}
	var xp TransferPrice
	var bp BlocksPrice
	old := e.Chip.Block(5)
	load(old, 1)
	before := e.ExecTransfersPriced("copy", trs, GroupCopies(trs), &xp)
	e.ExecBlocksPriced("add", groupPrograms(progs), &bp)

	e.remapFailed([]int{5})
	spare := e.Chip.Block(5)
	if spare == old || e.Chip.Physical(5) != 300 {
		t.Fatalf("logical block 5 resolves to physical %d, want spare 300", e.Chip.Physical(5))
	}
	load(spare, 10)
	after := e.ExecTransfersPriced("copy", trs, GroupCopies(trs), &xp)
	if fresh := e.ExecTransfers("copy", trs); after != fresh || after == before {
		t.Errorf("replay after the remap charged %+v, fresh pricing %+v, before the remap %+v", after, fresh, before)
	}
	e.ExecBlocksPriced("add", groupPrograms(progs), &bp)
	for r := 0; r < 4; r++ {
		if got, want := spare.GetFloat(6, r), 10+float32(r); got != want {
			t.Errorf("spare row 6 word %d = %g, want the copied %g", r, got, want)
		}
		if got, want := spare.GetFloat(r, 2), 10+float32(r); got != want {
			t.Errorf("spare row %d sum = %g, want %g", r, got, want)
		}
		if got, want := old.GetFloat(r, 2), 1+float32(r); got != want {
			t.Errorf("retired block row %d sum = %g, want the pre-remap %g", r, got, want)
		}
	}
}
