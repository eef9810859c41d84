package wavepim

import (
	"sort"

	"wavepim/internal/dg"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/sim"
)

// A layoutSchedule is one functional layout written once, in
// element-relative slots: slot k is the element's k-th block, counted from
// the block Placement.ElemSlot gives it. Everything a layout does per RK
// stage — which columns move between blocks, which program each block
// runs, where the state lives, which constants each compute block holds —
// is data here, and instantiate is the one place that turns it into the
// per-block stepPlan the engine replays. A slot's program is one
// []isa.Instr shared by every element, so a block phase instantiates as
// one sim.ProgGroup per slot.

// intraMove marks a colMove that stays inside one element.
const intraMove mesh.Face = -1

// colMove copies words consecutive columns from (src slot, srcCol) to
// (dst slot, dstCol). An intra move copies every compute row within one
// element; a face-f move copies the face-f neighbor's opposite-face rows
// into this element's face-f rows.
type colMove struct {
	face        mesh.Face
	src, srcCol int
	dst, dstCol int
	words       int
}

// schedPhase is one engine phase: a named batch of column moves, or, when
// progs is non-nil, one program per slot (nil for a slot that idles).
type schedPhase struct {
	name  string
	moves []colMove
	progs [][]isa.Instr
}

// schedVar locates one state variable: its slot, column, and RK-auxiliary
// column.
type schedVar struct{ slot, col, aux int }

// computeSlot is a slot that runs programs, and the role whose constants
// Load writes into it.
type computeSlot struct {
	slot int
	role BlockRole
}

// layoutSchedule is the element-relative description of one layout.
type layoutSchedule struct {
	slots   int
	vars    []schedVar // in the order dg.*State.Slices() returns the variables
	compute []computeSlot
	rhs     []schedPhase // the same on every stage
	integ   [dg.NumStages]schedPhase
}

// scheduleBuilder compiles a layout's schedule.
type scheduleBuilder func(c *Compiler) *layoutSchedule

// slotVars lists n variables held in consecutive columns from col (RK
// auxiliaries from aux) of one slot.
func slotVars(slot, n, col, aux int) []schedVar {
	out := make([]schedVar, n)
	for v := range out {
		out[v] = schedVar{slot: slot, col: col + v, aux: aux + v}
	}
	return out
}

// instantiate places the schedule's first n elements — the whole mesh, or
// a batch of whole z-slices — on the chip: element e's slot k is block
// place.ElemSlot(e) + k, and a face move reads from the element
// mesh.Neighbor names across that face, or becomes a hostCopy when that
// element lies outside the batch. A phase's transfers are emitted face by
// face (intra moves first), each face element by element, an element's
// moves in schedule order, row by row. The order is part of the simulated
// timeline — the interconnect ledger schedules a batch greedily in the
// order given, so interleaving faces would reprice the contention.
func (sc *layoutSchedule) instantiate(m *mesh.Mesh, place *Placement, n int) *stepPlan {
	base := make([]int, n)
	for e := range base {
		base[e] = place.ElemSlot(m.ElemCoords(e))
	}
	allRows := make([]int, m.NodesPerEl)
	for r := range allRows {
		allRows[r] = r
	}
	var faceRows [mesh.NumFaces][]int
	for f := range faceRows {
		faceRows[f] = m.FaceNodes(mesh.Face(f))
	}
	rowsOf := func(mv colMove) (src, dst []int) {
		if mv.face == intraMove {
			return allRows, allRows
		}
		return faceRows[mv.face.Opposite()], faceRows[mv.face]
	}
	// varAt is the state variable at each (slot, column); face moves read
	// only such cells (TestLayoutSchedulesWellFormed).
	varAt := map[[2]int]int{}
	for v, sv := range sc.vars {
		varAt[[2]int{sv.slot, sv.col}] = v
	}

	instPhase := func(ph schedPhase) phase {
		if ph.progs != nil {
			progs := []sim.ProgGroup{} // non-nil: a block phase even if every slot idles
			for slot, prog := range ph.progs {
				if prog == nil {
					continue
				}
				blocks := make([]int, len(base))
				for e, b := range base {
					blocks[e] = b + slot
				}
				sort.Ints(blocks)
				progs = append(progs, sim.ProgGroup{Prog: prog, Blocks: blocks})
			}
			return phase{name: ph.name, progs: progs}
		}
		perElem := 0
		for _, mv := range ph.moves {
			_, dst := rowsOf(mv)
			perElem += len(dst)
		}
		trs := make([]sim.RowTransfer, 0, perElem*len(base))
		var host []hostCopy
		moveVars := make([][]int, len(ph.moves))
		for f := intraMove; f < mesh.NumFaces; f++ {
			for e, b := range base {
				nb := e
				if f != intraMove {
					nb, _ = m.Neighbor(e, f) // functional meshes are periodic
				}
				for i, mv := range ph.moves {
					if mv.face != f {
						continue
					}
					srcRows, dstRows := rowsOf(mv)
					if nb >= n {
						for w := len(moveVars[i]); w < mv.words; w++ {
							moveVars[i] = append(moveVars[i], varAt[[2]int{mv.src, mv.srcCol + w}])
						}
						for g, dstRow := range dstRows {
							host = append(host, hostCopy{block: b + mv.dst, row: dstRow, col: mv.dstCol,
								elem: nb, node: srcRows[g], vars: moveVars[i]})
						}
						continue
					}
					for g, dstRow := range dstRows {
						trs = append(trs, sim.RowTransfer{
							SrcBlock: base[nb] + mv.src, SrcRow: srcRows[g], SrcOff: mv.srcCol,
							DstBlock: b + mv.dst, DstRow: dstRow, DstOff: mv.dstCol,
							Words: mv.words})
					}
				}
			}
		}
		return phase{name: ph.name, transfers: trs, groups: sim.GroupCopies(trs), host: host}
	}

	p := &stepPlan{compute: sc.compute, rhs: make([]phase, len(sc.rhs))}
	for _, v := range sc.vars {
		blocks := make([]int, len(base))
		for e, b := range base {
			blocks[e] = b + v.slot
		}
		p.vars = append(p.vars, varLoc{blocks: blocks, col: v.col, aux: v.aux})
	}
	for i, ph := range sc.rhs {
		p.rhs[i] = instPhase(ph)
	}
	for s, ph := range sc.integ {
		p.integ[s] = instPhase(ph)
	}
	return p
}
