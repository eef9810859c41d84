package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// corpus returns the 10k-key corpus the remap properties are stated
// over.
func corpus() []string {
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("job-%d", i)
	}
	return keys
}

// bigCorpus returns a 100k-key corpus for the spread checks: at 64
// workers the ideal share is ~1562 keys, so the ±20% bound sits at ~8
// sampling standard deviations — the check measures the ring's balance,
// not multinomial luck. (With the 10k corpus a 64-worker share is ~156
// keys and ±20% is only ~2.5σ of pure sampling noise.)
func bigCorpus() []string {
	keys := make([]string, 100000)
	for i := range keys {
		keys[i] = fmt.Sprintf("job-%d", i)
	}
	return keys
}

func workerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("worker-%02d", i)
	}
	return names
}

func ownersOf(r *Ring, keys []string) map[string]string {
	owners := make(map[string]string, len(keys))
	for _, k := range keys {
		o, ok := r.OwnerOf(k)
		if !ok {
			panic("ring empty")
		}
		owners[k] = o
	}
	return owners
}

// quickCfg gives every property a fixed pseudo-random source: the trials
// are reproducible, so a green run is green forever.
func quickCfg(seed int64, max int) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(seed)), MaxCount: max}
}

// TestRingSpreadUniform: at every worker count from 4 to 64, each worker
// owns within ±20% of the ideal share of the corpus.
func TestRingSpreadUniform(t *testing.T) {
	keys := bigCorpus()
	for n := 4; n <= 64; n *= 2 {
		r := NewRing(0)
		for _, w := range workerNames(n) {
			r.Add(w)
		}
		counts := map[string]int{}
		for _, owner := range ownersOf(r, keys) {
			counts[owner]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d workers own keys", n, len(counts))
		}
		ideal := float64(len(keys)) / float64(n)
		for w, c := range counts {
			dev := (float64(c) - ideal) / ideal
			if dev < -0.20 || dev > 0.20 {
				t.Errorf("n=%d: %s owns %d keys, ideal %.1f (%.1f%% off)",
					n, w, c, ideal, 100*dev)
			}
		}
	}
}

// TestRingSpreadUniformProperty: the spread bound holds for arbitrary
// (seeded-random) worker counts and name suffixes, not just the tidy
// power-of-two table above.
func TestRingSpreadUniformProperty(t *testing.T) {
	keys := bigCorpus()
	prop := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 4 + rng.Intn(61) // 4..64
		r := NewRing(0)
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("node-%d-%d", seed, i))
		}
		counts := map[string]int{}
		for _, owner := range ownersOf(r, keys) {
			counts[owner]++
		}
		ideal := float64(len(keys)) / float64(n)
		for w, c := range counts {
			dev := (float64(c) - ideal) / ideal
			if dev < -0.20 || dev > 0.20 {
				t.Logf("seed=%d n=%d: %s owns %d (ideal %.1f, %.1f%% off)",
					seed, n, w, c, ideal, 100*dev)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(7, 25)); err != nil {
		t.Fatal(err)
	}
}

// TestRingAddRemapMinimal: adding one worker to an N-worker ring remaps
// fewer than 2/N of the corpus, and every remapped key moves TO the new
// worker (consistent hashing's minimal-disruption contract).
func TestRingAddRemapMinimal(t *testing.T) {
	keys := corpus()
	prop := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 4 + rng.Intn(61)
		r := NewRing(0)
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("node-%d-%d", seed, i))
		}
		before := ownersOf(r, keys)
		r.Add("newcomer")
		after := ownersOf(r, keys)
		moved := 0
		for k, o := range after {
			if o != before[k] {
				if o != "newcomer" {
					t.Logf("seed=%d: key %s moved %s -> %s, not to newcomer",
						seed, k, before[k], o)
					return false
				}
				moved++
			}
		}
		bound := 2 * len(keys) / (n + 1)
		if moved >= bound {
			t.Logf("seed=%d n=%d: %d keys moved, bound %d", seed, n, moved, bound)
			return false
		}
		return moved > 0 // the newcomer must take a real share
	}
	if err := quick.Check(prop, quickCfg(11, 25)); err != nil {
		t.Fatal(err)
	}
}

// TestRingRemoveRemapMinimal: removing one worker remaps exactly that
// worker's keys (fewer than 2/N of the corpus), and the untouched keys
// keep their owner.
func TestRingRemoveRemapMinimal(t *testing.T) {
	keys := corpus()
	prop := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 4 + rng.Intn(61)
		names := make([]string, n)
		r := NewRing(0)
		for i := 0; i < n; i++ {
			names[i] = fmt.Sprintf("node-%d-%d", seed, i)
			r.Add(names[i])
		}
		before := ownersOf(r, keys)
		victim := names[rng.Intn(n)]
		r.Remove(victim)
		after := ownersOf(r, keys)
		moved := 0
		for k, o := range after {
			if o == victim {
				t.Logf("seed=%d: removed worker still owns %s", seed, k)
				return false
			}
			if o != before[k] {
				if before[k] != victim {
					t.Logf("seed=%d: key %s moved %s -> %s though %s was removed",
						seed, k, before[k], o, victim)
					return false
				}
				moved++
			}
		}
		bound := 2 * len(keys) / n
		if moved >= bound {
			t.Logf("seed=%d n=%d: %d keys moved, bound %d", seed, n, moved, bound)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(13, 25)); err != nil {
		t.Fatal(err)
	}
}

// TestRingDeterministic: ownership is a pure function of membership —
// insertion order does not matter, and rebuilding gives identical owners.
func TestRingDeterministic(t *testing.T) {
	keys := corpus()[:1000]
	a, b := NewRing(0), NewRing(0)
	names := workerNames(8)
	for _, w := range names {
		a.Add(w)
	}
	for i := len(names) - 1; i >= 0; i-- {
		b.Add(names[i])
	}
	for _, k := range keys {
		ao, _ := a.OwnerOf(k)
		bo, _ := b.OwnerOf(k)
		if ao != bo {
			t.Fatalf("owner of %s depends on insertion order: %s vs %s", k, ao, bo)
		}
	}
}

// TestRingEdgeCases: empty ring, duplicate adds, removing the last node.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.OwnerOf("job-1"); ok {
		t.Fatal("empty ring claims an owner")
	}
	r.Add("only")
	r.Add("only") // duplicate add is a no-op
	if len(r.nodes) != 1 {
		t.Fatalf("Len after duplicate add = %d", len(r.nodes))
	}
	if o, ok := r.OwnerOf("job-1"); !ok || o != "only" {
		t.Fatalf("single-node ring: %q %v", o, ok)
	}
	r.Remove("ghost") // removing an absent node is a no-op
	if len(r.nodes) != 1 {
		t.Fatalf("Len after ghost remove = %d", len(r.nodes))
	}
	r.Remove("only")
	if len(r.nodes) != 0 {
		t.Fatalf("Len after final remove = %d", len(r.nodes))
	}
	if _, ok := r.OwnerOf("job-1"); ok {
		t.Fatal("drained ring claims an owner")
	}
}
