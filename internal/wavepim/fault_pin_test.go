package wavepim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/fault"
)

// TestFaultedSessionsPinned pins three seeded fault-injected sessions of
// four steps on mesh.New(1, 4, true), serial and on the worker pool: the
// timeline digest, the final state hash, the run's error and the
// FaultReport JSON bytes. Acoustic seed 4 climbs the ECC rung and rolls
// back twice; acoustic seed 9 remaps blocks 4, 5, 4, 5 and then runs out
// of spares; elastic-Riemann seed 9 remaps inside the four-block layout's
// copy groups. The literals were recorded once and must never be edited:
// a remap that leaves a stale route or block behind moves them.
func TestFaultedSessionsPinned(t *testing.T) {
	cases := []struct {
		name           string
		eq             opcount.Equation
		cfg            fault.Config
		noSpares       bool
		digest, values uint64
		report         string
	}{
		{"acoustic-seed4", opcount.Acoustic, fault.Config{Seed: 4, FlipProb: 1e-5, StuckProb: 1e-6}, false,
			0x59ed2d2bb30d6131, 0xc71ffa86a74d9fff, `{
  "seed": 4,
  "stuck_prob": 0.000001,
  "flip_prob": 0.00001,
  "endurance_writes": 0,
  "faulty_blocks": 8,
  "counts": {
    "flips": 69,
    "stuck_writes": 0,
    "wearouts": 0,
    "detected": 20,
    "corrected": 20,
    "uncorrectable": 0,
    "retries": 0
  },
  "remaps": 0,
  "remapped_blocks": null,
  "checkpoints": 2,
  "rollbacks": 2,
  "spares_used": 0,
  "spares_left": 4
}
`},
		{"acoustic-seed9", opcount.Acoustic, fault.Config{Seed: 9, FlipProb: 1e-4, StuckProb: 1e-4}, true,
			0xf385eed7a90937c9, 0x160454d79a6ae15, `{
  "seed": 9,
  "stuck_prob": 0.0001,
  "flip_prob": 0.0001,
  "endurance_writes": 0,
  "faulty_blocks": 12,
  "counts": {
    "flips": 92,
    "stuck_writes": 377,
    "wearouts": 0,
    "detected": 403,
    "corrected": 43,
    "uncorrectable": 360,
    "retries": 84
  },
  "remaps": 4,
  "remapped_blocks": [
    4,
    5,
    4,
    5
  ],
  "checkpoints": 1,
  "rollbacks": 0,
  "spares_used": 4,
  "spares_left": 0
}
`},
		{"elastic-riemann-seed9", opcount.ElasticRiemann, fault.Config{Seed: 9, FlipProb: 1e-4, StuckProb: 1e-4}, true,
			0xff2f5869eaf3e063, 0x8d26ee7192d5b15a, `{
  "seed": 9,
  "stuck_prob": 0.0001,
  "flip_prob": 0.0001,
  "endurance_writes": 0,
  "faulty_blocks": 28,
  "counts": {
    "flips": 217,
    "stuck_writes": 263,
    "wearouts": 0,
    "detected": 354,
    "corrected": 111,
    "uncorrectable": 243,
    "retries": 86
  },
  "remaps": 4,
  "remapped_blocks": [
    14,
    20,
    14,
    14
  ],
  "checkpoints": 1,
  "rollbacks": 0,
  "spares_used": 4,
  "spares_left": 0
}
`},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				m := mesh.New(1, 4, true)
				s, err := NewSession(WithEquation(tc.eq), WithMesh(m), WithDt(1e-3),
					WithFaults(tc.cfg), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				var read func() [][]float64
				if tc.eq == opcount.Acoustic {
					q := dg.NewAcousticState(m)
					dg.PlaneWaveX(m, fnMat, 1, q)
					s.Acoustic().Load(q)
					read = func() [][]float64 { s.Acoustic().ReadState(q); return q.Slices() }
				} else {
					q, _ := elasticStates(m)
					s.Elastic().Load(q)
					read = func() [][]float64 { s.Elastic().ReadState(q); return q.Slices() }
				}
				err = s.Run(context.Background(), 4)
				if got := errors.Is(err, fault.ErrNoSpares); got != tc.noSpares || (err != nil && !got) {
					t.Errorf("run error %v, want ErrNoSpares %v", err, tc.noSpares)
				}
				if got := s.Engine().TimelineDigest(); got != tc.digest {
					t.Errorf("TimelineDigest = %#x, want %#x", got, tc.digest)
				}
				if got := stateHash(read()); got != tc.values {
					t.Errorf("state hash = %#x, want %#x", got, tc.values)
				}
				var buf bytes.Buffer
				if err := s.FaultReport().WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if got := buf.String(); got != tc.report {
					t.Errorf("fault report:\n%s\nwant:\n%s", got, tc.report)
				}
			})
		}
	}
}
