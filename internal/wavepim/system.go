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
// nothing is compiled or named on the hot path.

// phase is one engine phase of a time-step: a named transfer batch, or
// (when progs is non-nil) a named set of per-block programs.
type phase struct {
	name      string
	transfers []sim.RowTransfer
	progs     map[int][]isa.Instr
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
// It errors when even the largest configuration is too small — callers
// must not silently run on a chip that cannot hold the model.
func chipFor(nBlocks int) (chip.Config, error) {
	for _, cfg := range chip.AllConfigs() {
		if cfg.NumBlocks() >= nBlocks {
			return cfg, nil
		}
	}
	largest := chip.AllConfigs()[len(chip.AllConfigs())-1]
	return chip.Config{}, fmt.Errorf(
		"wavepim: no chip configuration fits %d blocks (largest, %s, has %d); batch the model instead",
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
	plan     *stepPlan

	// rhsPrices and integPrices hold each plan phase's cost on this
	// system's chip, priced once by newSystem, parallel to plan.rhs and
	// plan.integ. They live here and not in the shared plan because a
	// price depends on the chip's fabric (an H-tree's fanout too), which
	// PlanKey does not name. blocks resolves every block id the plan names.
	rhsPrices   []phasePrice
	integPrices [dg.NumStages]phasePrice
	blocks      []*xbar.Block
}

// phasePrice is one plan phase's stored cost: a transfer batch's or a
// block phase's.
type phasePrice struct {
	xfer   *sim.TransferPrice
	blocks *sim.BlocksPrice
}

// newSystem builds the chip, engine, compiler and placement of one layout
// on cfg. The step plan comes from the plan cache under key, or is built
// uncached when key is nil. The mesh must be periodic (every element has
// six neighbors, as in the paper's benchmark meshes) and fit the chip
// without batching.
func newSystem(cfg chip.Config, m *mesh.Mesh, flux dg.FluxType, dt float64, plan Plan, key *PlanKey, sched scheduleBuilder) (*system, error) {
	if !m.Periodic {
		return nil, fmt.Errorf("wavepim: functional runs require a periodic mesh")
	}
	if need := m.NumElem * plan.SlotsPerElem; need > cfg.NumBlocks() {
		return nil, fmt.Errorf("wavepim: %d elements need %d blocks, chip %s has %d", m.NumElem, need, cfg.Name, cfg.NumBlocks())
	}
	ch, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	plan.Chip = cfg
	s := &system{
		Mesh:   m,
		Comp:   NewCompiler(plan, m.Np, flux),
		Place:  NewPlacement(plan.Layout, m.EPerAxis, m.EPerAxis, true),
		Engine: newFunctionalEngine(ch),
		Dt:     dt,
	}
	build := func() *stepPlan { return sched(s.Comp).instantiate(m, s.Place) }
	if key == nil {
		s.plan = build()
	} else {
		v, hit := cachedPlan(*key, func() any { return build() })
		s.plan, s.CacheHit = v.(*stepPlan), hit
	}
	s.price()
	return s, nil
}

// price prices every plan phase on the system's engine and resolves the
// plan's blocks, so a step does only data work.
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
		return phasePrice{xfer: e.PriceTransfers(p.transfers)}
	}
	s.rhsPrices = make([]phasePrice, len(s.plan.rhs))
	for i, p := range s.plan.rhs {
		s.rhsPrices[i] = price(p)
	}
	for st, p := range s.plan.integ {
		s.integPrices[st] = price(p)
	}
}

// exec runs one phase to completion on the engine's timeline, replaying
// its stored price. An engine with a fault injector takes the un-priced
// path: spare-block remapping changes routes and blocks mid-run, and the
// recovery ladder runs inside ExecBlocks.
func (s *system) exec(p phase, pr phasePrice) {
	e := s.Engine
	switch priced := e.Faults == nil; {
	case p.progs != nil && priced:
		e.Sequence(e.ExecBlocksPriced(p.name, p.progs, pr.blocks, s.blocks))
	case p.progs != nil:
		e.Sequence(e.ExecBlocks(p.name, p.progs))
	case priced:
		e.Sequence(e.ExecTransfersPriced(p.name, p.transfers, pr.xfer, s.blocks))
	default:
		e.Sequence(e.ExecTransfers(p.name, p.transfers))
	}
}

// RHSOnce executes the right-hand-side phases of one stage (duplication,
// Volume, Flux), leaving the RHS in the contribution columns with no
// integration. Used by kernel-level verification tests.
func (s *system) RHSOnce() {
	for i, p := range s.plan.rhs {
		s.exec(p, s.rhsPrices[i])
	}
}

// Step executes one full five-stage time-step.
func (s *system) Step() {
	for st := range s.plan.integ {
		s.RHSOnce()
		s.exec(s.plan.integ[st], s.integPrices[st])
	}
}

// Run executes n time-steps.
func (s *system) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// eachComputeBlock calls fn on every element's compute blocks, element by
// element in the schedule's compute-slot order, with the role whose
// constants the block holds.
func (s *system) eachComputeBlock(fn func(e int, role BlockRole, b *xbar.Block)) {
	for e := 0; e < s.Mesh.NumElem; e++ {
		base := s.Place.ElemSlot(s.Mesh.ElemCoords(e))
		for _, cs := range s.plan.compute {
			fn(e, cs.role, s.Engine.Chip.Block(base+cs.slot))
		}
	}
}

// readVars copies every state variable off the chip into dst, one slice
// per plan variable.
func (s *system) readVars(dst [][]float64) {
	nn := s.Mesh.NodesPerEl
	for v, loc := range s.plan.vars {
		for e, blk := range loc.blocks {
			b := s.Engine.Chip.Block(blk)
			for n := 0; n < nn; n++ {
				dst[v][e*nn+n] = float64(b.GetFloat(n, loc.col))
			}
		}
	}
}

// writeVars writes every state variable from src onto the chip and zeroes
// its RK auxiliary, leaving constant rows untouched. It is both the state
// half of Load and the restore half of a checkpoint rollback: zeroing the
// auxiliaries at a step boundary is exact, because LSRK5A[0] = 0 makes the
// first stage of the next step overwrite them regardless of history.
func (s *system) writeVars(src [][]float64) {
	nn := s.Mesh.NodesPerEl
	for v, loc := range s.plan.vars {
		for e, blk := range loc.blocks {
			b := s.Engine.Chip.Block(blk)
			for n := 0; n < nn; n++ {
				b.SetFloat(n, loc.col, float32(src[v][e*nn+n]))
				b.SetFloat(n, loc.aux, 0)
			}
		}
	}
}
