package wavepim

import (
	"context"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/pim/nor"
)

// pinnedNORGateStats is the gate activity of sessionForTest's 2-step run
// on the NOR slab. Gate totals are per lane, so every slab width must
// reproduce them; a change that moves them changed the circuit, not just
// how the host evaluates it.
var pinnedNORGateStats = nor.Stats{NOREvals: 13761843424, Sets: 7620772520, Resets: 13761843424}

// WithNORSlab is a pure substrate swap: a run whose arithmetic goes
// gate-by-gate through the slab NOR datapath must reproduce the default
// (host-float) run bit-for-bit — state, clock, energy, and instruction
// accounting — while recording real gate activity. K=1 is the one-word
// bit-sliced width; DefaultSlabWords is the tuned one.
func TestSessionNORSlabBitIdentical(t *testing.T) {
	base := sessionForTest(t)
	if err := base.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if st := base.Engine().NORGateStats(); st != (nor.Stats{}) {
		t.Fatalf("host-float run recorded gate activity: %+v", st)
	}
	m := base.cfg.mesh
	qa := dg.NewAcousticState(m)
	base.Acoustic().ReadState(qa)

	for _, k := range []int{1, nor.DefaultSlabWords} {
		slab := sessionForTest(t, WithNORSlab(k))
		if slab.Engine().SlabWords != k {
			t.Fatalf("engine SlabWords = %d, want %d", slab.Engine().SlabWords, k)
		}
		if err := slab.Run(context.Background(), 2); err != nil {
			t.Fatal(err)
		}

		qb := dg.NewAcousticState(m)
		slab.Acoustic().ReadState(qb)
		for v, sl := range qa.Slices() {
			for i := range sl {
				if sl[i] != qb.Slices()[v][i] {
					t.Fatalf("K=%d var %d node %d: host %v, slab %v", k, v, i, sl[i], qb.Slices()[v][i])
				}
			}
		}
		if a, b := base.Engine().Now(), slab.Engine().Now(); a != b {
			t.Fatalf("K=%d clock: host %v, slab %v", k, a, b)
		}
		if a, b := base.Engine().TotalEnergy, slab.Engine().TotalEnergy; a != b {
			t.Fatalf("K=%d energy: host %v, slab %v", k, a, b)
		}
		if a, b := base.Engine().InstrCount, slab.Engine().InstrCount; a != b {
			t.Fatalf("K=%d instr count: host %v, slab %v", k, a, b)
		}

		// Gate totals are per lane, so the slab width must not change them.
		if st := slab.Engine().NORGateStats(); st != pinnedNORGateStats {
			t.Fatalf("K=%d gate stats %+v, pinned %+v", k, st, pinnedNORGateStats)
		}
	}
}
