package wavepim

import (
	"fmt"

	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
)

// Plan is the planner's decision for one (benchmark, chip) pair: which
// Table 5 technique combination to use, how elements map to blocks, and
// how the model folds through the chip when it does not fit.
type Plan struct {
	Bench  opcount.Benchmark
	Chip   chip.Config
	Tech   Technique
	Layout LayoutKind

	SlotsPerElem   int
	ElemsPerSlice  int // elements in one z-slice of the mesh
	NumSlices      int
	SlicesPerBatch int
	Batches        int
}

// ElemsPerBatch returns how many elements are resident per batch.
func (p Plan) ElemsPerBatch() int { return p.SlicesPerBatch * p.ElemsPerSlice }

// BlocksUsed returns how many memory blocks one batch occupies.
func (p Plan) BlocksUsed() int { return p.ElemsPerBatch() * p.SlotsPerElem }

func (p Plan) String() string {
	return fmt.Sprintf("%s on %s: %s (layout slots=%d, batches=%d)",
		p.Bench.Name(), p.Chip.Name, p.Tech, p.SlotsPerElem, p.Batches)
}

// MakePlan reproduces Table 5's configuration choices mechanically:
//
//   - The elastic system's nine variables exceed one block's row budget, so
//     elastic always uses E_r (a four-slot element: diagonal stress, shear
//     stress, velocity, neighbor buffer).
//   - If the chip has room to expand every element for more parallelism
//     (4 slots for acoustic, 12 for elastic), use E_p.
//   - Otherwise, if the whole model fits at the base layout, use it (N for
//     acoustic, E_r for elastic).
//   - Otherwise fold the model through the chip in whole z-slices
//     (Figure 7's flux schedule needs slice granularity), batching as many
//     slices per pass as fit.
func MakePlan(b opcount.Benchmark, cfg chip.Config) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	if b.Refinement < 0 || b.Refinement > mesh.MaxRefinement {
		return Plan{}, fmt.Errorf("wavepim: refinement %d out of range [0,%d]", b.Refinement, mesh.MaxRefinement)
	}
	ePerAxis := 1 << b.Refinement
	elemsPerSlice := ePerAxis * ePerAxis
	numElems := b.NumElements()
	avail := cfg.NumBlocks()

	elastic := b.Eq != opcount.Acoustic
	var base, expanded Technique
	var baseSlots, expSlots int
	if elastic {
		base, baseSlots = ExpandRows, ElasticFourBlock.SlotsPerElement()
		expanded, expSlots = ExpandRows|ExpandParallel, ElasticTwelveBlock.SlotsPerElement()
	} else {
		base, baseSlots = Naive, AcousticOneBlock.SlotsPerElement()
		expanded, expSlots = ExpandParallel, AcousticFourBlock.SlotsPerElement()
	}

	if b.Eq == opcount.Maxwell {
		// The Maxwell extension has a two-compute-block mapping only (E and
		// H blocks in a four-slot element); no E_p variant exists.
		expSlots = 1 << 30
	}

	p := Plan{Bench: b, Chip: cfg, ElemsPerSlice: elemsPerSlice, NumSlices: ePerAxis}
	switch {
	case numElems*expSlots <= avail:
		p.Tech, p.SlotsPerElem = expanded, expSlots
		p.SlicesPerBatch, p.Batches = p.NumSlices, 1
	case numElems*baseSlots <= avail:
		p.Tech, p.SlotsPerElem = base, baseSlots
		p.SlicesPerBatch, p.Batches = p.NumSlices, 1
	default:
		p.Tech, p.SlotsPerElem = base|Batching, baseSlots
		var err error
		if p.SlicesPerBatch, p.Batches, err = fitSlices(cfg, b.Name(), baseSlots, ePerAxis); err != nil {
			return Plan{}, err
		}
	}
	p.Layout = LayoutFor(b.Eq, p.Tech)
	return p, nil
}

// fitSlices is the one batching rule of the timed planner and the
// functional system: a model of ePerAxis^3 elements, slotsPerElem blocks
// each, folds through cfg in batches of as many whole z-slices as fit, the
// last batch taking the rest. It errors when not even one slice fits.
func fitSlices(cfg chip.Config, model string, slotsPerElem, ePerAxis int) (slicesPerBatch, batches int, err error) {
	sliceBlocks := slotsPerElem * ePerAxis * ePerAxis
	slicesPerBatch = min(cfg.NumBlocks()/sliceBlocks, ePerAxis)
	if slicesPerBatch < 1 {
		return 0, 0, fmt.Errorf("wavepim: %s does not fit even one slice of %s (%d blocks needed, %d available)",
			cfg.Name, model, sliceBlocks, cfg.NumBlocks())
	}
	return slicesPerBatch, (ePerAxis + slicesPerBatch - 1) / slicesPerBatch, nil
}

// PaperTable5 returns the published Table 5 technique strings, indexed by
// [benchmark][chip] in the order of opcount.AllBenchmarks-by-refinement
// groups and chip.AllConfigs.
//
// Determinism note: this is the only map in the planning layer, and it is
// only ever read by keyed lookup (tests index it by benchmark and chip
// name) — its iteration order never feeds a result, a timeline, or a
// report, so seeded fault runs stay byte-reproducible.
func PaperTable5() map[string]map[string]string {
	return map[string]map[string]string{
		"Acoustic_4": {
			"PIM-512MB": "N", "PIM-2GB": "E_p", "PIM-8GB": "E_p", "PIM-16GB": "E_p",
		},
		"Elastic_4": {
			"PIM-512MB": "E_r&B", "PIM-2GB": "E_r", "PIM-8GB": "E_r&E_p", "PIM-16GB": "E_r&E_p",
		},
		"Acoustic_5": {
			"PIM-512MB": "B", "PIM-2GB": "B", "PIM-8GB": "N", "PIM-16GB": "E_p",
		},
		"Elastic_5": {
			"PIM-512MB": "E_r&B", "PIM-2GB": "E_r&B", "PIM-8GB": "E_r&B", "PIM-16GB": "E_r",
		},
	}
}

// table5Key maps a benchmark to its Table 5 row (the table collapses the
// two elastic flux variants into one "Elastic" row per level: the fitting
// decision depends only on variable count, not on the flux solver).
func table5Key(b opcount.Benchmark) string {
	if b.Eq == opcount.Acoustic {
		return fmt.Sprintf("Acoustic_%d", b.Refinement)
	}
	return fmt.Sprintf("Elastic_%d", b.Refinement)
}

// Table5String renders the planner's decision in the paper's notation,
// with "B" shown alone for the naive-batched acoustic cases as Table 5
// prints it.
func (p Plan) Table5String() string {
	if p.Tech == Naive|Batching {
		return "B"
	}
	return p.Tech.String()
}
