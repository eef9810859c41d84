package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/sim"
)

// FunctionalAcousticBatched executes the batching technique of Section 6.1
// on real data: the model is larger than the block budget, so z-slices
// fold through a fixed set of blocks batch by batch (Figure 6), with the
// cross-batch flux faces served from the host-side DRAM image (the
// Figure 7 boundary-slice traffic). The host image is double-buffered per
// RK stage so every batch's flux sees pre-stage neighbor values, which is
// what makes the batched run bit-compatible with an unbatched one.
type FunctionalAcousticBatched struct {
	Mesh           *mesh.Mesh
	Mat            material.Acoustic
	Comp           *Compiler
	Engine         *sim.Engine
	Dt             float64
	SlicesPerBatch int

	batches  int
	elemsPB  int               // elements per batch
	blocks   []int             // block per batch-local element index
	host     *dg.AcousticState // DRAM image: variables
	hostAux  *dg.AcousticState // DRAM image: auxiliaries
	nextVars *dg.AcousticState
	nextAux  *dg.AcousticState
	volume   []isa.Instr
	flux     [mesh.NumFaces][]isa.Instr
	integ    [dg.NumStages][]isa.Instr
}

// NewFunctionalAcousticBatched builds the system. numSlices must divide by
// slicesPerBatch.
func NewFunctionalAcousticBatched(m *mesh.Mesh, mat material.Acoustic, flux dg.FluxType, dt float64, slicesPerBatch int) (*FunctionalAcousticBatched, error) {
	if !m.Periodic {
		return nil, fmt.Errorf("wavepim: functional runs require a periodic mesh")
	}
	if slicesPerBatch < 1 || m.NumSlices()%slicesPerBatch != 0 {
		return nil, fmt.Errorf("wavepim: %d slices not divisible by %d per batch", m.NumSlices(), slicesPerBatch)
	}
	elemsPB := m.EPerAxis * m.EPerAxis * slicesPerBatch
	cfg, err := chipFor(elemsPB)
	if err != nil {
		return nil, err
	}
	ch, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	plan := Plan{Tech: Naive | Batching, Layout: AcousticOneBlock, SlotsPerElem: 1, Chip: cfg}
	f := &FunctionalAcousticBatched{
		Mesh: m, Mat: mat,
		Comp:           NewCompiler(plan, m.Np, flux),
		Engine:         newFunctionalEngine(ch),
		Dt:             dt,
		SlicesPerBatch: slicesPerBatch,
		batches:        m.NumSlices() / slicesPerBatch,
		elemsPB:        elemsPB,
		host:           dg.NewAcousticState(m),
		hostAux:        dg.NewAcousticState(m),
		nextVars:       dg.NewAcousticState(m),
		nextAux:        dg.NewAcousticState(m),
	}
	f.blocks = make([]int, elemsPB)
	for i := range f.blocks {
		f.blocks[i] = i // the same block set is reused by every batch
	}
	f.volume = f.Comp.VolumeOneBlock()
	for face := mesh.Face(0); face < mesh.NumFaces; face++ {
		f.flux[face] = f.Comp.FluxOneBlock(face)
	}
	for s := 0; s < dg.NumStages; s++ {
		f.integ[s] = f.Comp.IntegrationOneBlock(s)
	}
	// Constants load once (Figure 6: the constant broadcast is removed for
	// later batches — and they never change, so one load serves all).
	for _, blk := range f.blocks {
		f.Comp.LoadAcousticConstants(f.Engine.Chip.Block(blk), m, mat, dt)
	}
	return f, nil
}

// Load seeds the DRAM image.
func (f *FunctionalAcousticBatched) Load(q *dg.AcousticState) {
	copyState(f.host, q)
	f.hostAux.Scale(0)
}

func copyState(dst, src *dg.AcousticState) {
	copy(dst.P, src.P)
	for d := 0; d < 3; d++ {
		copy(dst.V[d], src.V[d])
	}
}

// batchElems returns the global element ids of batch b, in batch-local
// order (slice-major).
func (f *FunctionalAcousticBatched) batchElems(b int) []int {
	var ids []int
	for s := b * f.SlicesPerBatch; s < (b+1)*f.SlicesPerBatch; s++ {
		ids = append(ids, f.Mesh.Slice(s)...)
	}
	return ids
}

// loadBatch writes batch b's variables and auxiliaries from the DRAM
// images into the blocks, charging the off-chip transaction.
func (f *FunctionalAcousticBatched) loadBatch(b int) []int {
	ids := f.batchElems(b)
	nn := f.Mesh.NodesPerEl
	for li, e := range ids {
		blk := f.Engine.Chip.Block(f.blocks[li])
		for n := 0; n < nn; n++ {
			blk.SetFloat(n, AcColP, float32(f.host.P[e*nn+n]))
			blk.SetFloat(n, AcColAux+0, float32(f.hostAux.P[e*nn+n]))
			for d := 0; d < 3; d++ {
				blk.SetFloat(n, AcColVX+d, float32(f.host.V[d][e*nn+n]))
				blk.SetFloat(n, AcColAux+1+d, float32(f.hostAux.V[d][e*nn+n]))
			}
		}
	}
	f.Engine.Sequence(f.Engine.ExecDRAM("load-batch", int64(len(ids)*nn*8*4)))
	return ids
}

// storeBatch reads batch b's variables and auxiliaries back into the
// next-stage DRAM images.
func (f *FunctionalAcousticBatched) storeBatch(b int, ids []int) {
	nn := f.Mesh.NodesPerEl
	for li, e := range ids {
		blk := f.Engine.Chip.Block(f.blocks[li])
		for n := 0; n < nn; n++ {
			f.nextVars.P[e*nn+n] = float64(blk.GetFloat(n, AcColP))
			f.nextAux.P[e*nn+n] = float64(blk.GetFloat(n, AcColAux+0))
			for d := 0; d < 3; d++ {
				f.nextVars.V[d][e*nn+n] = float64(blk.GetFloat(n, AcColVX+d))
				f.nextAux.V[d][e*nn+n] = float64(blk.GetFloat(n, AcColAux+1+d))
			}
		}
	}
	f.Engine.Sequence(f.Engine.ExecDRAM("store-batch", int64(len(ids)*nn*8*4)))
}

// fluxFetch prepares face f's neighbor columns for every batch element:
// in-batch neighbors transfer block-to-block; cross-batch neighbors (the
// z-boundary slices of Figure 7) inject pre-stage values from the DRAM
// image.
func (f *FunctionalAcousticBatched) fluxFetch(face mesh.Face, ids []int, localOf map[int]int) {
	m := f.Mesh
	myRows := m.FaceNodes(face)
	nbRows := m.FaceNodes(face.Opposite())
	nn := m.NodesPerEl
	var onChip []sim.RowTransfer
	var dramWords int64
	for li, e := range ids {
		nb, _ := m.Neighbor(e, face)
		if nbLocal, resident := localOf[nb]; resident {
			for g := range myRows {
				onChip = append(onChip, sim.RowTransfer{
					SrcBlock: f.blocks[nbLocal], SrcRow: nbRows[g], SrcOff: AcColP,
					DstBlock: f.blocks[li], DstRow: myRows[g], DstOff: AcColNbrP, Words: 4,
				})
			}
		} else {
			// Figure 7 boundary traffic: neighbor face values arrive from
			// DRAM (pre-stage image).
			blk := f.Engine.Chip.Block(f.blocks[li])
			for g, myN := range myRows {
				nbN := nbRows[g]
				blk.SetFloat(myN, AcColNbrP, float32(f.host.P[nb*nn+nbN]))
				for d := 0; d < 3; d++ {
					blk.SetFloat(myN, AcColNbrP+1+d, float32(f.host.V[d][nb*nn+nbN]))
				}
				dramWords += 4
			}
		}
	}
	if len(onChip) > 0 {
		f.Engine.Sequence(f.Engine.ExecTransfers("flux-fetch", onChip))
	}
	if dramWords > 0 {
		f.Engine.Sequence(f.Engine.ExecDRAM("boundary-slice", dramWords*4))
	}
}

// Step advances one five-stage time-step, folding every batch through the
// chip per stage.
func (f *FunctionalAcousticBatched) Step() {
	eng := f.Engine
	for s := 0; s < dg.NumStages; s++ {
		for b := 0; b < f.batches; b++ {
			ids := f.loadBatch(b)
			localOf := make(map[int]int, len(ids))
			for li, e := range ids {
				localOf[e] = li
			}
			progs := make(map[int][]isa.Instr, len(ids))
			for li := range ids {
				progs[f.blocks[li]] = f.volume
			}
			eng.Sequence(eng.ExecBlocks("volume", progs))
			for face := mesh.Face(0); face < mesh.NumFaces; face++ {
				f.fluxFetch(face, ids, localOf)
				fprogs := make(map[int][]isa.Instr, len(ids))
				for li := range ids {
					fprogs[f.blocks[li]] = f.flux[face]
				}
				eng.Sequence(eng.ExecBlocks("flux", fprogs))
			}
			iprogs := make(map[int][]isa.Instr, len(ids))
			for li := range ids {
				iprogs[f.blocks[li]] = f.integ[s]
			}
			eng.Sequence(eng.ExecBlocks("integration", iprogs))
			f.storeBatch(b, ids)
		}
		// Stage boundary: the new image becomes current (double buffer).
		f.host, f.nextVars = f.nextVars, f.host
		f.hostAux, f.nextAux = f.nextAux, f.hostAux
	}
}

// Run advances n steps.
func (f *FunctionalAcousticBatched) Run(n int) {
	for i := 0; i < n; i++ {
		f.Step()
	}
}

// ReadState extracts the current variables from the DRAM image.
func (f *FunctionalAcousticBatched) ReadState(q *dg.AcousticState) {
	copyState(q, f.host)
}
