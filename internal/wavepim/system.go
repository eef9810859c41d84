package wavepim

import (
	"fmt"
	"runtime"

	"wavepim/internal/dg"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/sim"
	"wavepim/internal/pim/xbar"
)

// One functional system serves every layout (one-block and expanded
// acoustic, four-block elastic, two-compute-block Maxwell). Per RK stage
// each layout runs a fixed sequence of transfers and block programs, so a
// layout is fully described by its compiled stepPlan, the per-block
// instantiation of its layoutSchedule: the engine replays the RHS phases
// and then the stage's integration phase, five times per time-step, and
// nothing is compiled or named on the hot path. A mesh the chip cannot
// hold folds through it in batches of whole z-slices (Section 6.1).

// phase is one engine phase of a time-step: a named transfer batch, or
// (when progs is non-nil) a named set of per-block programs.
type phase struct {
	name      string
	transfers []sim.RowTransfer
	groups    sim.CopyGroups // the transfers' sim.GroupCopies
	progs     map[int][]isa.Instr
	// host holds a batch plan's face moves from outside the batch: Figure
	// 7's boundary-slice traffic, served from the host image.
	host []hostCopy
}

// hostCopy is one row of a face move whose source element lies outside
// the batch: the host writes the pre-stage image's values of vars at node
// row node of element elem (counted in the first batch's frame) into
// consecutive columns from col of row in block.
type hostCopy struct {
	block, row, col int
	elem, node      int
	vars            []int
}

// varLoc locates one state variable on the chip: the block holding each
// element's nodes, the variable's column, and its RK auxiliary's column.
type varLoc struct {
	blocks   []int
	col, aux int
}

// stepPlan is the immutable compiled form of a layout's time-step, shared
// read-only by every system built from it.
type stepPlan struct {
	rhs     []phase // the same on every stage
	integ   [dg.NumStages]phase
	vars    []varLoc // in the order dg.*State.Slices() returns the variables
	compute []computeSlot
}

// chipFor picks the smallest evaluation chip configuration with at least n
// blocks (functional meshes are small, so this is almost always 512 MB).
// When none has, it returns the largest, through which a Session folds the
// model in batches, and an error for callers that need it resident.
func chipFor(nBlocks int) (chip.Config, error) {
	for _, cfg := range chip.AllConfigs() {
		if cfg.NumBlocks() >= nBlocks {
			return cfg, nil
		}
	}
	largest := chip.AllConfigs()[len(chip.AllConfigs())-1]
	return largest, fmt.Errorf(
		"wavepim: no chip configuration holds %d blocks (largest, %s, has %d)",
		nBlocks, largest.Name, largest.NumBlocks())
}

// newFunctionalEngine builds a functional engine with its worker pool sized
// to the machine, so per-block functional execution uses every core. The
// engine's merge order makes results identical to a serial run.
func newFunctionalEngine(ch *chip.Chip) *sim.Engine {
	e := sim.New(ch, true)
	e.Workers = runtime.GOMAXPROCS(0)
	return e
}

// system is a functional PIM execution of one layout: every float32 value
// lives in crossbar cells and every kernel runs as compiled PIM
// instructions, so it verifies node for node that the compiled Wave-PIM
// programs compute the same semi-discrete system as the internal/dg
// reference solver.
type system struct {
	Mesh   *mesh.Mesh
	Comp   *Compiler
	Place  *Placement
	Engine *sim.Engine
	Dt     float64

	// CacheHit reports whether the step plan came from the process-wide
	// plan cache, skipping compilation entirely.
	CacheHit bool
	// pricedPlan is the whole mesh's plan, or the one every full batch
	// replays; blocks resolves every block id a plan names, once priced.
	pricedPlan
	blocks []*xbar.Block

	// A batched system (nil batches when resident) loads each batch from
	// img, the host's DRAM image of every variable and then every RK
	// auxiliary, and stores it into next; the two swap at each stage end,
	// so boundary copies read pre-stage values (Figure 6's double buffer).
	// consts, when set, rewrites each batch's constants on load-batch,
	// because the elements differ in material.
	batches   []batch
	img, next [][]float32
	consts    func(e int, role BlockRole, b *xbar.Block)
}

// pricedPlan is a stepPlan and its phases' costs on one system's chip,
// parallel to plan.rhs and plan.integ; a zero price runs its phase
// un-priced. Prices are not in the shared plan because they depend on the
// chip's fabric (an H-tree's fanout too), which PlanKey does not name.
type pricedPlan struct {
	plan        *stepPlan
	rhsPrices   []phasePrice
	integPrices [dg.NumStages]phasePrice
}

func unpriced(p *stepPlan) pricedPlan {
	return pricedPlan{plan: p, rhsPrices: make([]phasePrice, len(p.rhs))}
}

// phasePrice is one plan phase's stored cost: a transfer batch's or a
// block phase's.
type phasePrice struct {
	xfer   *sim.TransferPrice
	blocks *sim.BlocksPrice
}

// batch is one fold of a batched system: the elements from first on, as
// many as its plan places.
type batch struct {
	first int
	*pricedPlan
}

// newSystem builds and prices the system of one layout on cfg.
func newSystem(cfg chip.Config, m *mesh.Mesh, flux dg.FluxType, dt float64, plan Plan, key *PlanKey, sched scheduleBuilder) (*system, error) {
	s, err := buildSystem(cfg, m, flux, dt, plan, key, sched)
	if err == nil {
		s.price()
	}
	return s, err
}

// buildSystem builds the chip, engine, compiler and placement of one
// layout on cfg, un-priced. The mesh must be periodic (every element has
// six neighbors, as in the paper's benchmark meshes). A mesh the chip
// holds gets one step plan, from the plan cache under key, or uncached
// when key is nil. A larger one folds through the chip in batches of whole
// z-slices (fitSlices, MakePlan's rule): every full batch shares one plan,
// a ragged last batch gets its own, and both are built uncached, because
// PlanKey names no batch size.
func buildSystem(cfg chip.Config, m *mesh.Mesh, flux dg.FluxType, dt float64, plan Plan, key *PlanKey, sched scheduleBuilder) (*system, error) {
	if !m.Periodic {
		return nil, fmt.Errorf("wavepim: functional runs require a periodic mesh")
	}
	slices, batches, err := fitSlices(cfg, plan.Bench.Name(), plan.SlotsPerElem, m.EPerAxis)
	if err != nil {
		return nil, err
	}
	ch, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	plan.Chip = cfg
	s := &system{
		Mesh:   m,
		Comp:   NewCompiler(plan, m.Np, flux),
		Place:  NewPlacement(plan.Layout, m.EPerAxis, slices, true),
		Engine: newFunctionalEngine(ch),
		Dt:     dt,
	}
	if batches == 1 {
		build := func() any { return sched(s.Comp).instantiate(m, s.Place, m.NumElem) }
		var v any
		if key == nil {
			v = build()
		} else {
			v, s.CacheHit = cachedPlan(*key, build)
		}
		s.pricedPlan = unpriced(v.(*stepPlan))
		return s, nil
	}
	sc, size := sched(s.Comp), slices*m.EPerAxis*m.EPerAxis
	s.pricedPlan = unpriced(sc.instantiate(m, s.Place, size))
	for first := 0; first < m.NumElem; first += size {
		b := batch{first, &s.pricedPlan}
		if rest := m.NumElem - first; rest < size {
			tail := unpriced(sc.instantiate(m, s.Place, rest))
			b.pricedPlan = &tail
		}
		s.batches = append(s.batches, b)
	}
	s.img, s.next = make([][]float32, 2*len(s.plan.vars)), make([][]float32, 2*len(s.plan.vars))
	for i := range s.img {
		s.img[i], s.next[i] = make([]float32, m.NumElem*m.NodesPerEl), make([]float32, m.NumElem*m.NodesPerEl)
	}
	return s, nil
}

// price prices every plan phase on the system's engine and resolves the
// plans' blocks, so a step does only data work. A system whose engine has
// a fault injector is never priced: spare-block remapping changes routes
// and blocks mid-run, and the recovery ladder runs inside ExecBlocks.
func (s *system) price() {
	e := s.Engine
	s.blocks = make([]*xbar.Block, s.Place.MaxBlockID()+1)
	for id := range s.blocks {
		s.blocks[id] = e.Chip.Block(id)
	}
	price := func(p phase) phasePrice {
		if p.progs != nil {
			return phasePrice{blocks: e.PriceBlocks(p.progs)}
		}
		return phasePrice{xfer: e.PriceTransfers(p.transfers, p.groups)}
	}
	plans := []*pricedPlan{&s.pricedPlan}
	if n := len(s.batches); n > 0 && s.batches[n-1].pricedPlan != plans[0] {
		plans = append(plans, s.batches[n-1].pricedPlan) // a ragged last batch
	}
	for _, pp := range plans {
		for i, p := range pp.plan.rhs {
			pp.rhsPrices[i] = price(p)
		}
		for st, p := range pp.plan.integ {
			pp.integPrices[st] = price(p)
		}
	}
}

// exec runs one phase to completion on the engine's timeline: a replay of
// its stored price when it has one, else the un-priced path. A batch
// phase's boundary copies then read the elements from first on.
func (s *system) exec(p phase, pr phasePrice, first int) {
	e := s.Engine
	switch {
	case pr.blocks != nil:
		e.Sequence(e.ExecBlocksPriced(p.name, p.progs, pr.blocks, s.blocks))
	case p.progs != nil:
		e.Sequence(e.ExecBlocks(p.name, p.progs))
	case len(p.transfers) == 0: // every move crosses the batch boundary
	case pr.xfer != nil:
		e.Sequence(e.ExecTransfersPriced(p.name, p.transfers, pr.xfer, s.blocks))
	default:
		e.Sequence(e.ExecTransfers(p.name, p.transfers))
	}
	if len(p.host) == 0 {
		return
	}
	var words int64
	for _, c := range p.host {
		at := (c.elem+first)%s.Mesh.NumElem*s.Mesh.NodesPerEl + c.node
		for w, v := range c.vars {
			s.blocks[c.block].SetFloat(c.row, c.col+w, s.img[v][at])
		}
		words += int64(len(c.vars))
	}
	e.Sequence(e.ExecDRAM("boundary-slice", 4*words))
}

// RHSOnce executes the right-hand-side phases of one stage (duplication,
// Volume, Flux), leaving the RHS in the contribution columns with no
// integration. A test hook for kernel-level verification, on resident
// systems only.
func (s *system) RHSOnce() {
	for i, p := range s.plan.rhs {
		s.exec(p, s.rhsPrices[i], 0)
	}
}

// Step executes one full five-stage time-step; a batched system runs each
// stage batch by batch through load-batch, the batch's plan and
// store-batch.
func (s *system) Step() {
	for st := range s.plan.integ {
		if s.batches == nil {
			s.stage(&s.pricedPlan, st, 0)
			continue
		}
		for _, b := range s.batches {
			s.moveBatch(b, false)
			s.stage(b.pricedPlan, st, b.first)
			s.moveBatch(b, true)
		}
		s.img, s.next = s.next, s.img
	}
}

// stage runs stage st of pp's plan on the elements from first on.
func (s *system) stage(pp *pricedPlan, st, first int) {
	for i, p := range pp.plan.rhs {
		s.exec(p, pp.rhsPrices[i], first)
	}
	s.exec(pp.plan.integ[st], pp.integPrices[st], first)
}

// Run executes n time-steps.
func (s *system) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// moveBatch moves batch b's variables and RK auxiliaries, charged as
// off-chip traffic: into its blocks from img (load-batch, with the
// batch's constants when consts is set), or out of them into next
// (store-batch).
func (s *system) moveBatch(b batch, store bool) {
	nn, nv, elems := s.Mesh.NodesPerEl, len(b.plan.vars), len(b.plan.vars[0].blocks)
	for v, loc := range b.plan.vars {
		for k, col := range [2]int{loc.col, loc.aux} {
			img, next := s.img[k*nv+v], s.next[k*nv+v]
			for i, id := range loc.blocks {
				for n, at := 0, (b.first+i)*nn; n < nn; n, at = n+1, at+1 {
					if store {
						next[at] = s.blocks[id].GetFloat(n, col)
					} else {
						s.blocks[id].SetFloat(n, col, img[at])
					}
				}
			}
		}
	}
	name, bytes := "store-batch", int64(2*4*nv*elems*nn)
	if !store {
		name = "load-batch"
		if s.consts != nil {
			s.eachComputeBlock(b.first, elems, s.consts)
			bytes += int64(elems*len(b.plan.compute)) * blockConstBytes
		}
	}
	s.Engine.Sequence(s.Engine.ExecDRAM(name, bytes))
}

// eachComputeBlock calls fn on the compute blocks of the n elements from
// first on, element by element in the schedule's compute-slot order, with
// the role whose constants the block holds. The blocks are where Place
// puts the mesh's first n elements: the whole mesh, or a batch.
func (s *system) eachComputeBlock(first, n int, fn func(e int, role BlockRole, b *xbar.Block)) {
	for i := 0; i < n; i++ {
		base := s.Place.ElemSlot(s.Mesh.ElemCoords(i))
		for _, cs := range s.plan.compute {
			fn(first+i, cs.role, s.Engine.Chip.Block(base+cs.slot))
		}
	}
}

// loadConstants writes every element's constants with load. A batched
// system holds one batch's blocks: when every element's constants are
// equal (uniform) they are written once and every batch reuses them
// (Figure 6 drops the constant broadcast for later batches); otherwise
// each load-batch writes its own.
func (s *system) loadConstants(uniform bool, load func(e int, role BlockRole, b *xbar.Block)) {
	s.consts = nil
	if s.batches != nil && !uniform {
		s.consts = load
		return
	}
	s.eachComputeBlock(0, len(s.plan.vars[0].blocks), load)
}

// allEqual reports whether every element of xs is equal.
func allEqual[T comparable](xs []T) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// readVars copies every state variable into dst, one slice per plan
// variable: off the chip, or from a batched system's image.
func (s *system) readVars(dst [][]float64) {
	nn := s.Mesh.NodesPerEl
	for v, loc := range s.plan.vars {
		if s.img != nil {
			for i, x := range s.img[v] {
				dst[v][i] = float64(x)
			}
			continue
		}
		for e, blk := range loc.blocks {
			b := s.Engine.Chip.Block(blk)
			for n := 0; n < nn; n++ {
				dst[v][e*nn+n] = float64(b.GetFloat(n, loc.col))
			}
		}
	}
}

// writeVars writes every state variable from src, onto the chip or into a
// batched system's image, and zeroes its RK auxiliary, leaving constant
// rows untouched. It is both the state half of Load and the restore half
// of a checkpoint rollback: zeroing the auxiliaries at a step boundary is
// exact, because LSRK5A[0] = 0 makes the first stage of the next step
// overwrite them regardless of history.
func (s *system) writeVars(src [][]float64) {
	nn, nv := s.Mesh.NodesPerEl, len(s.plan.vars)
	for v, loc := range s.plan.vars {
		if s.img != nil {
			for i, x := range src[v] {
				s.img[v][i], s.img[nv+v][i] = float32(x), 0
			}
			continue
		}
		for e, blk := range loc.blocks {
			b := s.Engine.Chip.Block(blk)
			for n := 0; n < nn; n++ {
				b.SetFloat(n, loc.col, float32(src[v][e*nn+n]))
				b.SetFloat(n, loc.aux, 0)
			}
		}
	}
}
