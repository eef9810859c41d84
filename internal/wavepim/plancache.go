package wavepim

import (
	"sync"
	"sync/atomic"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
)

// Compiled-plan cache. A layout's stepPlan — every block program,
// transfer schedule and program->block map a functional system replays
// per Step() — is a pure function of (equation, flux, element order, mesh
// extent, chip config). The cache builds one stepPlan per key once per
// process and shares it across sessions: repeated Session construction
// (and every wavepimd job after the first) skips block-program
// compilation entirely, and Step() never recompiles. Entries are
// immutable after build — programs and transfer lists are only ever read
// (concurrent map reads from many sessions' engines are safe), so no
// copying or locking happens on the hot path. The expanded acoustic plan
// is built per system and not cached: PlanKey has no layout dimension.

// PlanKey identifies one compiled artifact set. All fields are part of
// the content address: two keys with equal fields share one entry.
type PlanKey struct {
	Eq       opcount.Equation
	Flux     dg.FluxType
	Np       int
	EPerAxis int
	Chip     string
	Topo     string // interconnect topology name ("" means the default H-tree)
}

// Digest returns the FNV-1a content address of the key (stable across
// processes; used for cache introspection and logging, not for lookup —
// lookup uses the full key, so digests never collide into wrong entries).
func (k PlanKey) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= prime64
		}
	}
	mix(uint64(k.Eq))
	mix(uint64(k.Flux))
	mix(uint64(k.Np))
	mix(uint64(k.EPerAxis))
	for i := 0; i < len(k.Chip); i++ {
		h ^= uint64(k.Chip[i])
		h *= prime64
	}
	// A separator keeps (Chip, Topo) pairs from aliasing across the
	// string boundary.
	h ^= 0xff
	h *= prime64
	for i := 0; i < len(k.Topo); i++ {
		h ^= uint64(k.Topo[i])
		h *= prime64
	}
	return h
}

// planEntry is one cache slot: the sync.Once makes concurrent first
// lookups build exactly once while latecomers block until the value is
// ready (singleflight).
type planEntry struct {
	once sync.Once
	val  any
}

var planCache = struct {
	mu      sync.Mutex
	entries map[PlanKey]*planEntry
	hits    atomic.Int64
	misses  atomic.Int64
}{entries: map[PlanKey]*planEntry{}}

// cachedPlan returns the artifact set for key, building it at most once
// per process. The second result reports whether this call was served
// from cache (false exactly once per key).
func cachedPlan(key PlanKey, build func() any) (any, bool) {
	planCache.mu.Lock()
	e, ok := planCache.entries[key]
	if !ok {
		e = &planEntry{}
		planCache.entries[key] = e
	}
	planCache.mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		e.val = build()
	})
	if hit {
		planCache.hits.Add(1)
	} else {
		planCache.misses.Add(1)
	}
	return e.val, hit
}

// PlanCacheStats is a snapshot of the process-wide compiled-plan cache.
type PlanCacheStats struct {
	Hits, Misses, Entries int64
}

// PlanCacheSnapshot returns the current cache counters.
func PlanCacheSnapshot() PlanCacheStats {
	planCache.mu.Lock()
	n := int64(len(planCache.entries))
	planCache.mu.Unlock()
	return PlanCacheStats{
		Hits:    planCache.hits.Load(),
		Misses:  planCache.misses.Load(),
		Entries: n,
	}
}

// resetPlanCache empties the cache and counters (tests and cold-compile
// benchmarks only).
func resetPlanCache() {
	planCache.mu.Lock()
	planCache.entries = map[PlanKey]*planEntry{}
	planCache.mu.Unlock()
	planCache.hits.Store(0)
	planCache.misses.Store(0)
}
