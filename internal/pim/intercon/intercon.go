// Package intercon models the inter-block interconnect of Section 4.2 as a
// pluggable routing/congestion substrate. The paper evaluates two designs —
// the H-tree (a fanout-4 switch tree per memory tile, 85 switches for a
// 256-block tile) and the Bus (one central switch) — and this package keeps
// those two bit-exact while adding four classic NoC fabrics (mesh, torus,
// flattened butterfly, dragonfly) behind the same Topology interface. The
// essential behaviour the paper evaluates — transfers through disjoint
// routes proceed in parallel while transfers sharing a switch serialize —
// is captured by a contention-aware list scheduler: a streaming Ledger that
// runs one estimate → occupy → backpressure round per transfer over a
// per-switch channel slice.
package intercon

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"wavepim/internal/params"
)

// Transfer is one inter-block payload movement (a row-buffer's worth or a
// word subset of it).
type Transfer struct {
	Src, Dst int // block indices (leaves)
	Words    int // 32-bit words moved
}

// Topology routes transfers between leaf blocks. Beyond the path view
// (AppendPath), implementations expose a channel view — SwitchCount and
// EgressHops — that the scheduler's ledger and the topology-sweep reports
// are built on.
type Topology interface {
	// Name returns the wire name of the topology (one of Names()).
	Name() string
	// AppendPath appends the switch IDs a src->dst transfer traverses, in
	// order, to buf and returns the extended slice; pass nil for a fresh
	// route. Nothing is appended when src == dst (no interconnect
	// involvement), and nothing is allocated when buf has the capacity.
	AppendPath(buf []int, src, dst int) []int
	// SwitchCount is the number of switches in the topology.
	SwitchCount() int
	// LeakagePowerW is the static power of all switches.
	LeakagePowerW() float64
	// HopLatency is the per-payload per-hop latency: H-tree and mesh
	// switches span a fanout-sized neighborhood, while bus/express/global
	// links drive longer wires and are correspondingly slower.
	HopLatency() float64
	// EgressHops is the number of switch crossings from a leaf to the
	// topology's chip-port gateway (for a tree, the depth). Cross-tile
	// transfers pay this leg inside both endpoint tiles.
	EgressHops() int
}

// Names lists the wire names of every constructible topology, in the
// canonical sweep order (the two paper designs first).
func Names() []string {
	return []string{"htree", "bus", "mesh", "torus", "flatfly", "dragonfly"}
}

// ErrUnknownTopology reports a topology name outside Names().
var ErrUnknownTopology = errors.New("unknown interconnect topology")

// Config carries the per-topology construction knobs. The zero value
// selects the paper defaults.
type Config struct {
	Fanout int // H-tree fanout (default 4); ignored by the other fabrics
}

// New builds a topology by wire name over the given leaf count. The empty
// name selects the paper's default H-tree. Unknown names wrap
// ErrUnknownTopology (errors.Is-matchable).
func New(name string, leaves int, cfg Config) (Topology, error) {
	fanout := cfg.Fanout
	if fanout < 2 {
		fanout = 4
	}
	switch name {
	case "", "htree":
		return NewHTree(leaves, fanout), nil
	case "bus":
		return NewBus(leaves), nil
	case "mesh":
		return NewMesh(leaves), nil
	case "torus":
		return NewTorus(leaves), nil
	case "flatfly":
		return NewFlattenedButterfly(leaves), nil
	case "dragonfly":
		return NewDragonfly(leaves), nil
	}
	return nil, fmt.Errorf("intercon: %w: %q (known: %s)",
		ErrUnknownTopology, name, strings.Join(Names(), ", "))
}

// perSwitchLeakW is the leakage of one H-tree-class (radix-5) switch,
// derived from Table 3's 85-switch tile budget. The non-paper fabrics scale
// it by their switch count and radix.
func perSwitchLeakW() float64 {
	return params.PowerHTreeSwitchesW / params.HTreeSwitchesPerTile
}

// scaledLeakW prices a fabric of n switches of the given radix against the
// H-tree's radix-5 (four children plus one parent) reference switch.
func scaledLeakW(n, radix int) float64 {
	return perSwitchLeakW() * float64(n) * float64(radix) / 5.0
}

// ---------------------------------------------------------------------------
// H-tree
// ---------------------------------------------------------------------------

// HTree is the paper's fanout-k switch tree. Level 0 switches connect
// groups of fanout adjacent blocks (the S0 of Figure 3); each higher level
// connects fanout lower switches, up to a single root.
type HTree struct {
	leaves int
	fanout int
	// levelBase[l] is the global switch ID of the first level-l switch;
	// levelCount[l] is how many switches that level has.
	levelBase  []int
	levelCount []int
}

// NewHTree builds an H-tree over leaves blocks with the given fanout
// (the paper uses 4 but notes "the number of children of a tree node does
// not have to be 4").
func NewHTree(leaves, fanout int) *HTree {
	if leaves < 1 || fanout < 2 {
		panic(fmt.Sprintf("intercon: invalid H-tree leaves=%d fanout=%d", leaves, fanout))
	}
	h := &HTree{leaves: leaves, fanout: fanout}
	n := leaves
	base := 0
	for n > 1 {
		n = (n + fanout - 1) / fanout
		h.levelBase = append(h.levelBase, base)
		h.levelCount = append(h.levelCount, n)
		base += n
	}
	if len(h.levelBase) == 0 { // single leaf: degenerate, one root switch
		h.levelBase = []int{0}
		h.levelCount = []int{1}
	}
	return h
}

// Name implements Topology.
func (h *HTree) Name() string { return "htree" }

// SwitchCount implements Topology. For the paper's 256-block tile with
// fanout 4 this is 64+16+4+1 = 85, matching Table 3.
func (h *HTree) SwitchCount() int {
	var n int
	for _, c := range h.levelCount {
		n += c
	}
	return n
}

// LeakagePowerW scales the published 85-switch tile power to this tree's
// switch count.
func (h *HTree) LeakagePowerW() float64 {
	return perSwitchLeakW() * float64(h.SwitchCount())
}

// HopLatency implements Topology.
func (h *HTree) HopLatency() float64 { return params.SwitchHopLatencySec }

// EgressHops implements Topology: the tree depth (a leaf-to-root climb).
func (h *HTree) EgressHops() int { return len(h.levelCount) }

// AppendPath implements Topology: climb from src to the lowest common
// ancestor, then descend to dst. The Figure 3 walkthrough (Block 0 to
// Block 5 via D0->D1->D2->D3 through S0, S1, S0') is reproduced exactly.
// A leaf's level-l ancestor is leaf / fanout^(l+1), so both climbs are
// repeated divisions.
func (h *HTree) AppendPath(buf []int, src, dst int) []int {
	if src < 0 || src >= h.leaves || dst < 0 || dst >= h.leaves {
		panic(fmt.Sprintf("intercon: leaf out of range: %d or %d (leaves=%d)", src, dst, h.leaves))
	}
	if src == dst {
		return buf
	}
	// LCA level: the lowest level where both leaves share an ancestor.
	lca := 0
	for a, b := src/h.fanout, dst/h.fanout; a != b; a, b = a/h.fanout, b/h.fanout {
		lca++
	}
	// The route is src's ancestors up to the LCA, then dst's back down:
	// level l of the climb sits at n+l, level l of the descent at n+2*lca-l.
	n := len(buf)
	buf = slices.Grow(buf, 2*lca+1)[:n+2*lca+1]
	a, b := src, dst
	for l := 0; l <= lca; l++ {
		a, b = a/h.fanout, b/h.fanout
		buf[n+l] = h.levelBase[l] + a
		buf[n+2*lca-l] = h.levelBase[l] + b
	}
	return buf
}

// ---------------------------------------------------------------------------
// Bus
// ---------------------------------------------------------------------------

// Bus is the single-switch alternative: cheap and low-leakage, but every
// transfer serializes through switch 0.
type Bus struct {
	leaves int
}

// NewBus builds a bus over leaves blocks.
func NewBus(leaves int) *Bus {
	if leaves < 1 {
		panic("intercon: bus needs at least one leaf")
	}
	return &Bus{leaves: leaves}
}

// Name implements Topology.
func (b *Bus) Name() string { return "bus" }

// SwitchCount implements Topology.
func (b *Bus) SwitchCount() int { return 1 }

// LeakagePowerW implements Topology (Table 3's 17.2 mW bus switch).
func (b *Bus) LeakagePowerW() float64 { return params.PowerBusSwitchW }

// HopLatency implements Topology: the central bus switch drives
// tile-spanning wires, so each payload beat is slower than an H-tree
// switch's neighborhood hop.
func (b *Bus) HopLatency() float64 { return params.BusHopPenalty * params.SwitchHopLatencySec }

// EgressHops implements Topology.
func (b *Bus) EgressHops() int { return 1 }

// AppendPath implements Topology.
func (b *Bus) AppendPath(buf []int, src, dst int) []int {
	if src < 0 || src >= b.leaves || dst < 0 || dst >= b.leaves {
		panic(fmt.Sprintf("intercon: leaf out of range: %d or %d (leaves=%d)", src, dst, b.leaves))
	}
	if src == dst {
		return buf
	}
	return append(buf, 0)
}

// ---------------------------------------------------------------------------
// Contention-aware scheduling: estimate -> occupy -> backpressure
// ---------------------------------------------------------------------------

// Schedule is the result of scheduling a batch of transfers.
type Schedule struct {
	Makespan float64 // time until the last transfer completes
	EnergyJ  float64 // dynamic switching energy
	Words    int64   // total words moved
	// Backpressure accounting: a transfer whose estimated injection time
	// is pushed past zero by a busy switch on its route counts as one
	// backpressure event, and the push is its backpressure wait.
	Backpressured   int
	BackpressureSec float64
}

// Ledger is the streaming form of the contention loop: the per-switch
// channel ledger of one batch (when each switch next falls idle), the
// running Schedule totals of the transfers added so far, and a reused
// route buffer, so adding a transfer allocates nothing. busy, when
// non-nil, accumulates each switch's occupied seconds (the sweep reports'
// occupancy histograms) across batches and ledgers that share it. One
// ledger prices one batch at a time; Reset readies it for the next.
type Ledger struct {
	topo  Topology
	hop   float64
	free  []float64
	busy  []float64
	route []int
	sum   Schedule
}

// NewLedger builds an empty ledger for a topology. busy, when non-nil,
// must have at least topo.SwitchCount() entries.
func NewLedger(topo Topology, busy []float64) *Ledger {
	return &Ledger{topo: topo, hop: topo.HopLatency(), free: make([]float64, topo.SwitchCount()), busy: busy}
}

// Add schedules one transfer after those already added, with greedy list
// scheduling under store-and-forward pipelining: the payload stream
// occupies switch i of its route for payloads hop-cycles starting one
// hop-cycle after switch i-1, so a switch is released as soon as the
// stream has passed through it. Each transfer runs one estimate -> occupy
// -> backpressure round: a congested switch backpressures later transfers
// (serializing them), while disjoint routes overlap fully — on the bus
// every route shares switch 0 and therefore serializes, the Section 4.2.2
// behaviour ("the bus switch processes these transmissions sequentially").
func (l *Ledger) Add(tr Transfer) {
	l.route = l.topo.AppendPath(l.route[:0], tr.Src, tr.Dst)
	path, hop := l.route, l.hop
	if len(path) == 0 {
		return
	}
	payloads := (tr.Words + params.PayloadWords - 1) / params.PayloadWords
	occupy := float64(payloads) * hop
	// Estimate: the earliest start at which every switch i of the route
	// is free when the stream reaches it, at start + i*hop.
	var start float64
	for i, s := range path {
		if t := l.free[s] - float64(i)*hop; t > start {
			start = t
		}
	}
	// Occupy: book switch i from start + i*hop for occupy seconds.
	for i, s := range path {
		l.free[s] = start + float64(i)*hop + occupy
		if l.busy != nil {
			l.busy[s] += occupy
		}
	}
	// Backpressure: any push past immediate injection means a busy switch
	// serialized this transfer behind an earlier one.
	if start > 0 {
		l.sum.Backpressured++
		l.sum.BackpressureSec += start
	}
	end := start + float64(len(path)-1)*hop + occupy
	if end > l.sum.Makespan {
		l.sum.Makespan = end
	}
	l.sum.EnergyJ += float64(tr.Words*len(path)) * params.SwitchHopEnergyJ
	l.sum.Words += int64(tr.Words)
}

// Schedule returns the totals of the transfers added since the last Reset.
func (l *Ledger) Schedule() Schedule { return l.sum }

// Reset empties the ledger for the next batch; busy keeps accumulating.
func (l *Ledger) Reset() {
	clear(l.free)
	l.sum = Schedule{}
}

// ScheduleBatch schedules the transfers in order through one fresh Ledger.
func ScheduleBatch(topo Topology, batch []Transfer) Schedule {
	l := NewLedger(topo, nil)
	for _, tr := range batch {
		l.Add(tr)
	}
	return l.Schedule()
}
