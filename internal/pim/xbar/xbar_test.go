package xbar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wavepim/internal/params"
	"wavepim/internal/pim/fault"
)

func TestGeometry(t *testing.T) {
	if Rows != 1024 || WordsPerRow != 32 {
		t.Fatalf("block geometry %dx%d words, want 1024x32 (1K x 1K bits)", Rows, WordsPerRow)
	}
	if Rows*WordsPerRow*32 != params.BlockBits {
		t.Error("block capacity mismatch with params.BlockBits")
	}
}

func TestSetGetFloat(t *testing.T) {
	b := New(0)
	b.SetFloat(17, 5, 3.25)
	if got := b.GetFloat(17, 5); got != 3.25 {
		t.Errorf("GetFloat = %g", got)
	}
	b.SetWord(1023, 31, 0xDEADBEEF)
	if got := b.GetWord(1023, 31); got != 0xDEADBEEF {
		t.Errorf("GetWord = %#x", got)
	}
}

func TestReadWriteRowBuffer(t *testing.T) {
	b := New(0)
	for off := 0; off < WordsPerRow; off++ {
		b.SetWord(9, off, uint32(off*7))
	}
	b.ReadRow(9)
	b.WriteRow(10)
	for off := 0; off < WordsPerRow; off++ {
		if b.GetWord(10, off) != uint32(off*7) {
			t.Fatalf("row copy via buffer failed at word %d", off)
		}
	}
	if b.Stats.RowReads != 1 || b.Stats.RowWrites != 1 {
		t.Errorf("stats %+v", b.Stats)
	}
	if b.Stats.BusySec <= 0 || b.Stats.EnergyJ <= 0 {
		t.Error("row ops must consume time and energy")
	}
}

func TestBufferTransfer(t *testing.T) {
	src, dst := New(0), New(1)
	src.SetFloat(3, 2, 42.5)
	dst.LoadBuffer(src.ReadRow(3))
	dst.WriteRow(8)
	if got := dst.GetFloat(8, 2); got != 42.5 {
		t.Errorf("inter-block transfer got %g", got)
	}
}

func TestArithAddRowParallel(t *testing.T) {
	b := New(0)
	for r := 0; r < 100; r++ {
		b.SetFloat(r, 0, float32(r))
		b.SetFloat(r, 1, 2)
	}
	b.ArithSel(OpAdd, 0, 100, 2, 0, 1)
	for r := 0; r < 100; r++ {
		if got := b.GetFloat(r, 2); got != float32(r)+2 {
			t.Fatalf("row %d: %g", r, got)
		}
	}
	if b.Stats.AddOps != 100 {
		t.Errorf("AddOps = %d", b.Stats.AddOps)
	}
	// Latency is row-parallel: one NOR sequence regardless of rows.
	if b.Stats.NORSteps != params.NORStepsFPAdd32 {
		t.Errorf("NORSteps = %d want %d", b.Stats.NORSteps, params.NORStepsFPAdd32)
	}
}

func TestArithMulUsesMulLatency(t *testing.T) {
	b := New(0)
	b.SetFloat(0, 0, 3)
	b.SetFloat(0, 1, 4)
	b.ArithSel(OpMul, 0, 1, 2, 0, 1)
	if got := b.GetFloat(0, 2); got != 12 {
		t.Errorf("mul got %g", got)
	}
	if b.Stats.NORSteps != params.NORStepsFPMul32 {
		t.Errorf("NORSteps = %d want %d", b.Stats.NORSteps, params.NORStepsFPMul32)
	}
}

func TestArithLatencyIndependentOfRowsEnergyScales(t *testing.T) {
	b1, b512 := New(0), New(1)
	b1.ArithSel(OpAdd, 0, 1, 2, 0, 1)
	b512.ArithSel(OpAdd, 0, 512, 2, 0, 1)
	if b1.Stats.BusySec != b512.Stats.BusySec {
		t.Errorf("latency should be row-parallel: %g vs %g", b1.Stats.BusySec, b512.Stats.BusySec)
	}
	if b512.Stats.EnergyJ <= b1.Stats.EnergyJ*500 {
		t.Errorf("energy should scale with rows: %g vs %g", b1.Stats.EnergyJ, b512.Stats.EnergyJ)
	}
}

func TestBroadcast(t *testing.T) {
	b := New(0)
	for w := 0; w < 4; w++ {
		b.SetFloat(512, 8+w, float32(w)+0.5)
	}
	b.Broadcast(512, 0, 512, 8, 20, 4)
	for r := 0; r < 512; r++ {
		for w := 0; w < 4; w++ {
			if got := b.GetFloat(r, 20+w); got != float32(w)+0.5 {
				t.Fatalf("broadcast row %d word %d: %g", r, w, got)
			}
		}
	}
	if b.Stats.CopiedRows != 512 {
		t.Errorf("CopiedRows = %d", b.Stats.CopiedRows)
	}
}

// Property: ArithSel matches hardware float32 for arbitrary bit patterns
// (including NaN/Inf/subnormals), because the nor package proved the NOR
// datapath equivalent.
func TestArithMatchesHardwareProperty(t *testing.T) {
	b := New(0)
	f := func(x, y uint32, mul bool) bool {
		b.SetWord(0, 0, x)
		b.SetWord(0, 1, y)
		op := OpAdd
		if mul {
			op = OpMul
		}
		b.ArithSel(op, 0, 1, 2, 0, 1)
		got := b.GetWord(0, 2)
		a := math.Float32frombits(x)
		c := math.Float32frombits(y)
		var want uint32
		if mul {
			want = math.Float32bits(a * c)
		} else {
			want = math.Float32bits(a + c)
		}
		if got == want {
			return true
		}
		// NaNs may differ in payload.
		return math.IsNaN(float64(math.Float32frombits(got))) &&
			math.IsNaN(float64(math.Float32frombits(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoundsPanics(t *testing.T) {
	b := New(0)
	cases := []func(){
		func() { b.SetFloat(Rows, 0, 1) },
		func() { b.SetFloat(0, WordsPerRow, 1) },
		func() { b.ReadRow(-1) },
		func() { b.ArithSel(OpAdd, 1000, 100, 0, 1, 2) },
		func() { b.Broadcast(0, 0, 10, 30, 30, 4) },
		func() { b.LoadBuffer(make([]uint32, 3)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{RowReads: 1, AddOps: 2, EnergyJ: 0.5, BusySec: 0.25}
	var s Stats
	s.Add(a)
	s.Add(a)
	if s.RowReads != 2 || s.AddOps != 4 || s.EnergyJ != 1.0 || s.BusySec != 0.5 {
		t.Errorf("Stats.Add wrong: %+v", s)
	}
}

// CopyWords is the per-word GetWord/SetWord loop of a transfer: same
// cells and fault counts, also when source and destination are one row
// with overlapping words.
func TestCopyWordsMatchesWordLoop(t *testing.T) {
	cfg := fault.Config{Seed: 3, StuckProb: 0.05, FlipProb: 0.05, EnduranceWrites: 4}
	for _, faulty := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		blocks := []*Block{New(0), New(1)}
		refs := []*refBlock{{}, {}}
		if faulty {
			for i := range blocks {
				blocks[i].Faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(i)
				refs[i].faults = fault.NewInjector(cfg, fault.DefaultRecovery()).ForBlock(i)
			}
		}
		for i := range blocks {
			for r := 0; r < 64; r++ {
				for o := 0; o < WordsPerRow; o++ {
					v := rng.Uint32()
					blocks[i].SetWord(r, o, v)
					refs[i].store(r, o, v)
				}
			}
		}
		for step := 0; step < 500; step++ {
			si, di := rng.Intn(2), rng.Intn(2)
			n := rng.Intn(WordsPerRow + 1)
			sr, so := rng.Intn(64), rng.Intn(WordsPerRow-n+1)
			dr, do := rng.Intn(64), rng.Intn(WordsPerRow-n+1)
			if step%4 == 0 {
				di, dr = si, sr
			}
			blocks[di].CopyWords(dr, do, blocks[si], sr, so, n)
			for w := 0; w < n; w++ {
				refs[di].store(dr, do+w, refs[si].cells[sr][so+w])
			}
		}
		for i, b := range blocks {
			for r := 0; r < 64; r++ {
				for o := 0; o < WordsPerRow; o++ {
					if got, want := b.GetWord(r, o), refs[i].cells[r][o]; got != want {
						t.Fatalf("faults=%v block %d cell (%d,%d) = %08x, want %08x", faulty, i, r, o, got, want)
					}
				}
			}
			if faulty && b.Faults.Counts() != refs[i].faults.Counts() {
				t.Fatalf("block %d fault counts %+v, want %+v", i, b.Faults.Counts(), refs[i].faults.Counts())
			}
		}
	}
	b := New(0)
	for i, fn := range []func(){
		func() { b.CopyWords(0, 30, b, 0, 0, 3) },
		func() { b.CopyWords(0, 0, b, Rows, 0, 1) },
		func() { b.CopyWords(0, 0, b, 0, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
