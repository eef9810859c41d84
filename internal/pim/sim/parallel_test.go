package sim

import (
	"sort"
	"testing"

	"wavepim/internal/pim/isa"
)

// The parallel functional path must be indistinguishable from the serial
// one: same phase cost, same instruction count, same cell contents. Run
// these with -race to also validate that per-block work shares no mutable
// state (chip.Block's lazy allocation, passive LUT reads).

// variedProgs builds per-block programs of different lengths so workers
// finish out of order and the deterministic merge is actually exercised.
func variedProgs(nBlocks int) map[int][]isa.Instr {
	progs := make(map[int][]isa.Instr, nBlocks)
	for b := 0; b < nBlocks; b++ {
		var prog []isa.Instr
		for k := 0; k <= b%5; k++ {
			prog = append(prog,
				isa.Instr{Op: isa.OpAdd, RowStart: 0, RowCount: 4, DstOff: 2, SrcOff: 0, Src2Off: 1},
				isa.Instr{Op: isa.OpMul, RowStart: 0, RowCount: 4, DstOff: 3, SrcOff: 2, Src2Off: 1},
			)
		}
		progs[b] = prog
	}
	return progs
}

func loadOperands(e *Engine, nBlocks int) {
	for b := 0; b < nBlocks; b++ {
		blk := e.Chip.Block(b)
		for r := 0; r < 4; r++ {
			blk.SetFloat(r, 0, float32(b)+0.5)
			blk.SetFloat(r, 1, float32(r)+0.25)
		}
	}
}

func TestParallelExecBlocksMatchesSerial(t *testing.T) {
	const nBlocks = 24
	progs := variedProgs(nBlocks)

	serial := newEngine(t)
	loadOperands(serial, nBlocks)
	ps := serial.ExecBlocks("phase", progs)

	for _, workers := range []int{2, 3, 8, 64} {
		par := newEngine(t)
		par.Workers = workers
		loadOperands(par, nBlocks)
		pp := par.ExecBlocks("phase", progs)

		// Costs and counters must be bit-identical, not just close: the
		// merge runs in ascending block order on both paths.
		if ps.Dur != pp.Dur || ps.EnergyJ != pp.EnergyJ {
			t.Errorf("workers=%d: phase cost (%g, %g) != serial (%g, %g)",
				workers, pp.Dur, pp.EnergyJ, ps.Dur, ps.EnergyJ)
		}
		if serial.InstrCount != par.InstrCount {
			t.Errorf("workers=%d: InstrCount %d != %d", workers, par.InstrCount, serial.InstrCount)
		}
		for b := 0; b < nBlocks; b++ {
			sb, pb := serial.Chip.Block(b), par.Chip.Block(b)
			for r := 0; r < 4; r++ {
				for off := 0; off < 4; off++ {
					if sb.GetWord(r, off) != pb.GetWord(r, off) {
						t.Fatalf("workers=%d block %d (%d,%d): cells diverged", workers, b, r, off)
					}
				}
			}
		}
	}
}

// LUT reads from a passive block are allowed in parallel; many blocks
// fetching from the same table concurrently must agree with serial.
func TestParallelExecBlocksLUT(t *testing.T) {
	const nBlocks, lutBlock = 16, 100
	run := func(workers int) *Engine {
		e := newEngine(t)
		e.Workers = workers
		e.Chip.Block(lutBlock).SetFloat(77/32, 77%32, 3.5)
		progs := make(map[int][]isa.Instr, nBlocks)
		for b := 0; b < nBlocks; b++ {
			e.Chip.Block(b).SetWord(4, 1, 77)
			progs[b] = []isa.Instr{{Op: isa.OpLUT, Row: 4, SrcOff: 1, LUTBlock: lutBlock, DstOff: 9}}
		}
		e.Sequence(e.ExecBlocks("lut", progs))
		return e
	}
	serial, par := run(0), run(8)
	if serial.TotalTime() != par.TotalTime() || serial.TotalEnergy != par.TotalEnergy {
		t.Errorf("LUT phase cost diverged: (%g, %g) vs (%g, %g)",
			par.TotalTime(), par.TotalEnergy, serial.TotalTime(), serial.TotalEnergy)
	}
	for b := 0; b < nBlocks; b++ {
		if got := par.Chip.Block(b).GetFloat(4, 9); got != 3.5 {
			t.Errorf("parallel LUT block %d fetched %g, want 3.5", b, got)
		}
	}
}

// The safety scan: programs that touch foreign mutable state must force
// the serial path, programs that don't must not.
func TestBlocksIndependent(t *testing.T) {
	cases := []struct {
		name  string
		progs map[int][]isa.Instr
		want  bool
	}{
		{"own block arithmetic", map[int][]isa.Instr{
			0: {{Op: isa.OpAdd}},
			1: {{Op: isa.OpMul}},
		}, true},
		{"own row ops", map[int][]isa.Instr{
			2: {{Op: isa.OpRead, Block: 2}, {Op: isa.OpWrite, Block: 2}},
		}, true},
		{"memcpy", map[int][]isa.Instr{
			0: {{Op: isa.OpMemcpy, Block: 0, DstBlock: 5}},
		}, false},
		{"foreign read", map[int][]isa.Instr{
			0: {{Op: isa.OpRead, Block: 7}},
		}, false},
		{"foreign write", map[int][]isa.Instr{
			0: {{Op: isa.OpWrite, Block: 7}},
		}, false},
		{"LUT from passive block", map[int][]isa.Instr{
			0: {{Op: isa.OpLUT, LUTBlock: 9}},
			1: {{Op: isa.OpLUT, LUTBlock: 9}},
		}, true},
		{"LUT from an executing block", map[int][]isa.Instr{
			0: {{Op: isa.OpLUT, LUTBlock: 1}},
			1: {{Op: isa.OpAdd}},
		}, false},
	}
	for _, c := range cases {
		var ids []int
		for id := range c.progs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		if got := blocksIndependent(groupPrograms(c.progs), ids); got != c.want {
			t.Errorf("%s: blocksIndependent = %v, want %v", c.name, got, c.want)
		}
	}
}

// Unsafe programs still execute correctly (through the serial fallback)
// with Workers set.
func TestParallelFallbackOnDependentBlocks(t *testing.T) {
	e := newEngine(t)
	e.Workers = 8
	src := e.Chip.Block(0)
	src.SetFloat(3, 0, 8.75)
	for w := 1; w < 32; w++ {
		src.SetWord(3, w, 0)
	}
	e.Sequence(e.ExecBlocks("copy", map[int][]isa.Instr{
		0: {{Op: isa.OpMemcpy, Block: 0, Row: 3, DstBlock: 1, DstRow: 6}},
	}))
	if got := e.Chip.Block(1).GetFloat(6, 0); got != 8.75 {
		t.Errorf("memcpy under Workers got %g, want 8.75", got)
	}
}

func TestExecWorkersBounds(t *testing.T) {
	e := &Engine{}
	if got := e.execWorkers(10); got != 0 {
		t.Errorf("unset Workers: %d", got)
	}
	e.Workers = 8
	if got := e.execWorkers(3); got != 3 {
		t.Errorf("more workers than blocks: %d", got)
	}
	if got := e.execWorkers(100); got != 8 {
		t.Errorf("bounded by Workers: %d", got)
	}
}
