package sim

import (
	"testing"

	"wavepim/internal/pim/chip"
)

// A warm ExecTransfers allocates nothing: routes, ledgers and the per-tile
// index ranges are reused, on a batch inside one tile and on one that
// interleaves four tiles with cross-tile and self-transfers.
func TestExecTransfersAllocationFree(t *testing.T) {
	ch, err := chip.New(chip.Config2GB())
	if err != nil {
		t.Fatal(err)
	}
	e := New(ch)
	multi := pinBatches(5, 32)[3]
	var single []RowTransfer
	for _, tr := range multi {
		if tr.SrcBlock/256 == 1 && tr.DstBlock/256 == 1 {
			single = append(single, tr)
		}
	}
	if len(single) < 10 {
		t.Fatalf("single-tile batch has only %d transfers", len(single))
	}
	for name, batch := range map[string][]RowTransfer{"single-tile": single, "multi-tile": multi} {
		e.ExecTransfers(name, batch)
		if n := testing.AllocsPerRun(20, func() { e.ExecTransfers(name, batch) }); n != 0 {
			t.Errorf("%s: warm ExecTransfers allocates %.1f times per call", name, n)
		}
	}
}
