package intercon

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// allTopos builds every constructible topology over the given leaf count
// through the factory — the same path production configs take.
func allTopos(t *testing.T, leaves int) []Topology {
	t.Helper()
	var topos []Topology
	for _, name := range Names() {
		topo, err := New(name, leaves, Config{})
		if err != nil {
			t.Fatalf("New(%q, %d): %v", name, leaves, err)
		}
		topos = append(topos, topo)
	}
	return topos
}

// randBatch builds a random transfer batch over a 64-leaf topology.
func randBatch(r *rand.Rand, n int) []Transfer {
	batch := make([]Transfer, n)
	for i := range batch {
		src := r.Intn(64)
		dst := r.Intn(64)
		for dst == src {
			dst = r.Intn(64)
		}
		batch[i] = Transfer{Src: src, Dst: dst, Words: 1 + r.Intn(256)}
	}
	return batch
}

// singleDur prices one transfer alone.
func singleDur(topo Topology, tr Transfer) float64 {
	return ScheduleBatch(topo, []Transfer{tr}).Makespan
}

// Property: the makespan is bounded below by the longest individual
// transfer and above by the fully serial sum.
func TestScheduleMakespanBounds(t *testing.T) {
	topos := allTopos(t, 64)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		batch := randBatch(r, 1+r.Intn(20))
		for _, topo := range topos {
			s := ScheduleBatch(topo, batch)
			var longest, serial float64
			for _, tr := range batch {
				d := singleDur(topo, tr)
				serial += d
				if d > longest {
					longest = d
				}
			}
			if s.Makespan < longest-1e-15 || s.Makespan > serial+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: energy is order-independent and additive (it counts physical
// word-hops, not scheduling luck) — on every fabric.
func TestScheduleEnergyOrderIndependent(t *testing.T) {
	topos := allTopos(t, 64)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		batch := randBatch(r, 2+r.Intn(10))
		for _, topo := range topos {
			e1 := ScheduleBatch(topo, batch).EnergyJ
			// Reverse the order.
			rev := make([]Transfer, len(batch))
			for i, tr := range batch {
				rev[len(batch)-1-i] = tr
			}
			e2 := ScheduleBatch(topo, rev).EnergyJ
			var sum float64
			for _, tr := range batch {
				sum += ScheduleBatch(topo, []Transfer{tr}).EnergyJ
			}
			if !closeRel(e1, e2, 1e-12) || !closeRel(e1, sum, 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func closeRel(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= tol*(1+m)
}

// Property: adding a transfer never shrinks the makespan (work
// monotonicity under the greedy scheduler).
func TestScheduleMonotoneInWork(t *testing.T) {
	topo := NewBus(64)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		batch := randBatch(r, 1+r.Intn(10))
		base := ScheduleBatch(topo, batch).Makespan
		more := ScheduleBatch(topo, append(batch, randBatch(r, 1)...)).Makespan
		return more >= base-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: on the bus, the makespan is exactly the serial sum of
// occupancies (one switch, full serialization).
func TestBusMakespanIsSerialSum(t *testing.T) {
	topo := NewBus(64)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		batch := randBatch(r, 1+r.Intn(12))
		s := ScheduleBatch(topo, batch)
		var sum float64
		for _, tr := range batch {
			sum += singleDur(topo, tr)
		}
		return closeRel(s.Makespan, sum, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: on every topology and a range of leaf counts (including ones
// that leave a partial switch group or grid row), every pair of distinct
// leaves is routable: the path is non-empty, every switch ID is in range,
// no switch repeats consecutively, the route length is symmetric
// (len route(a,b) == len route(b,a) under deterministic minimal routing),
// and appending after a non-empty prefix leaves the prefix alone and
// appends exactly the route a nil call returns.
func TestPathValidityAllTopologies(t *testing.T) {
	for _, leaves := range []int{16, 64, 72, 100, 256} {
		for _, topo := range allTopos(t, leaves) {
			n := topo.SwitchCount()
			maxLen := n // a minimal deterministic route never revisits the fabric
			r := rand.New(rand.NewSource(int64(leaves)))
			check := func(src, dst int) {
				p := topo.AppendPath(nil, src, dst)
				q := topo.AppendPath(nil, dst, src)
				prefix := append(make([]int, 0, 64), -1, -2) // room to append in place
				if pq := topo.AppendPath(prefix, src, dst); !slices.Equal(pq[:2], []int{-1, -2}) || !slices.Equal(pq[2:], p) {
					t.Fatalf("%s/%d: AppendPath([-1 -2], %d, %d) = %v, want the prefix then %v", topo.Name(), leaves, src, dst, pq, p)
				}
				if src == dst {
					if len(p) != 0 {
						t.Fatalf("%s/%d: AppendPath(%d,%d) = %v, want empty", topo.Name(), leaves, src, dst, p)
					}
					return
				}
				if len(p) == 0 {
					t.Fatalf("%s/%d: AppendPath(%d,%d) unreachable", topo.Name(), leaves, src, dst)
				}
				if len(p) > maxLen {
					t.Fatalf("%s/%d: AppendPath(%d,%d) = %d switches > %d", topo.Name(), leaves, src, dst, len(p), maxLen)
				}
				if len(p) != len(q) {
					t.Fatalf("%s/%d: asymmetric route %d<->%d: %v vs %v", topo.Name(), leaves, src, dst, p, q)
				}
				for i, s := range p {
					if s < 0 || s >= n {
						t.Fatalf("%s/%d: AppendPath(%d,%d) switch %d out of range [0,%d)", topo.Name(), leaves, src, dst, s, n)
					}
					if i > 0 && p[i-1] == s {
						t.Fatalf("%s/%d: AppendPath(%d,%d) repeats switch %d: %v", topo.Name(), leaves, src, dst, s, p)
					}
				}
			}
			// Exhaustive on small fabrics, sampled on large ones.
			if leaves <= 72 {
				for src := 0; src < leaves; src++ {
					for dst := 0; dst < leaves; dst++ {
						check(src, dst)
					}
				}
			} else {
				for i := 0; i < 2000; i++ {
					check(r.Intn(leaves), r.Intn(leaves))
				}
			}
		}
	}
}

// Property: on every fabric, a batch of same-switch-group transfers (all
// endpoints attached to one switch) never backpressures transfers on a
// disjoint group's switch — disjoint routes overlap fully.
func TestDisjointRoutesOverlap(t *testing.T) {
	for _, topo := range allTopos(t, 64) {
		if topo.Name() == "bus" {
			continue // one shared switch: everything serializes by design
		}
		batch := []Transfer{
			{Src: 0, Dst: 1, Words: 256}, // group 0 local
			{Src: 4, Dst: 5, Words: 256}, // group 1 local, disjoint switch
		}
		s := ScheduleBatch(topo, batch)
		single := ScheduleBatch(topo, batch[:1])
		if !closeRel(s.Makespan, single.Makespan, 1e-12) {
			t.Errorf("%s: disjoint local transfers serialized: batch %.3e vs single %.3e",
				topo.Name(), s.Makespan, single.Makespan)
		}
		if s.Backpressured != 0 {
			t.Errorf("%s: disjoint local transfers backpressured %d times", topo.Name(), s.Backpressured)
		}
	}
}

// Property: H-tree path lengths are symmetric in distance classes — blocks
// in the same fanout group have 1-switch paths; the path length never
// exceeds 2*depth - 1.
func TestHTreePathLengthBounds(t *testing.T) {
	h := NewHTree(256, 4)
	maxLen := 2*4 - 1 // depth 4 tree over 256 leaves
	f := func(a, b uint8) bool {
		src, dst := int(a), int(b)
		if src == dst {
			return true
		}
		p := h.AppendPath(nil, src, dst)
		if len(p) < 1 || len(p) > maxLen {
			return false
		}
		if src/4 == dst/4 && len(p) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the H-tree's division climb routes every pair through the same
// switches as the definition — up src's level-l ancestors
// levelBase[l] + leaf/fanout^(l+1) to the lowest common one, then down
// dst's — on full and partial trees of several fanouts.
func TestHTreeRouteMatchesAncestors(t *testing.T) {
	for _, fanout := range []int{2, 3, 4, 8} {
		for _, leaves := range []int{16, 64, 72, 100, 256} {
			h := NewHTree(leaves, fanout)
			ancestor := func(leaf, level int) int {
				div := fanout
				for i := 0; i < level; i++ {
					div *= fanout
				}
				return h.levelBase[level] + leaf/div
			}
			for src := 0; src < leaves; src++ {
				for dst := 0; dst < leaves; dst++ {
					var want []int
					if src != dst {
						lca := 0
						for ancestor(src, lca) != ancestor(dst, lca) {
							lca++
						}
						for l := 0; l <= lca; l++ {
							want = append(want, ancestor(src, l))
						}
						for l := lca - 1; l >= 0; l-- {
							want = append(want, ancestor(dst, l))
						}
					}
					if got := h.AppendPath(nil, src, dst); !slices.Equal(got, want) {
						t.Fatalf("fanout %d leaves %d: route %d->%d = %v, want %v", fanout, leaves, src, dst, got, want)
					}
				}
			}
		}
	}
}

// AppendPath into a buffer with room allocates nothing on any fabric, and
// neither does a warm Ledger's Add.
func TestRoutingAllocationFree(t *testing.T) {
	for _, topo := range allTopos(t, 256) {
		buf := make([]int, 0, 64)
		if n := testing.AllocsPerRun(100, func() {
			for src := 0; src < 256; src += 37 {
				buf = topo.AppendPath(buf[:0], src, 255-src)
			}
		}); n != 0 {
			t.Errorf("%s: AppendPath allocates %.1f times per run", topo.Name(), n)
		}
		l := NewLedger(topo, make([]float64, topo.SwitchCount()))
		tr := Transfer{Src: 3, Dst: 250, Words: 64}
		l.Add(tr)
		if n := testing.AllocsPerRun(100, func() { l.Reset(); l.Add(tr) }); n != 0 {
			t.Errorf("%s: warm Ledger.Add allocates %.1f times per run", topo.Name(), n)
		}
	}
}
