package wavepim

import (
	"context"
	"sync"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
)

// The second session with the same (equation, flux, order, extent, chip)
// skips compilation: its plan comes from the cache, the hit counter
// moves, and the physics is bit-identical to the cold session's.
func TestPlanCacheWarmHit(t *testing.T) {
	resetPlanCache()

	cold := sessionForTest(t)
	if cold.PlanCacheHit() {
		t.Fatal("first session must be a cache miss")
	}
	warm := sessionForTest(t)
	if !warm.PlanCacheHit() {
		t.Fatal("second identical session must be a cache hit")
	}
	st := PlanCacheSnapshot()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("snapshot = %+v, want 1 miss, 1 hit, 1 entry", st)
	}

	// Both sessions share one immutable plan; runs stay bit-identical.
	if err := cold.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := warm.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	m := cold.cfg.mesh
	qa, qb := dg.NewAcousticState(m), dg.NewAcousticState(m)
	cold.Acoustic().ReadState(qa)
	warm.Acoustic().ReadState(qb)
	for v, sl := range qa.Slices() {
		for i := range sl {
			if sl[i] != qb.Slices()[v][i] {
				t.Fatalf("var %d node %d: cold %v, warm %v", v, i, sl[i], qb.Slices()[v][i])
			}
		}
	}
}

// Every key dimension that changes compiled output produces a distinct
// cache entry — a changed flux or equation must never be served a stale
// plan.
func TestPlanCacheKeying(t *testing.T) {
	resetPlanCache()

	sessionForTest(t) // acoustic Riemann: miss
	if s := sessionForTest(t, WithFlux(dg.CentralFlux)); s.PlanCacheHit() {
		t.Fatal("central flux must not hit the Riemann entry")
	}

	m := mesh.New(1, 4, true)
	el, err := NewSession(WithMesh(m), WithDt(1e-3), WithEquation(opcount.ElasticCentral), WithFlux(dg.CentralFlux))
	if err != nil {
		t.Fatal(err)
	}
	if el.PlanCacheHit() {
		t.Fatal("elastic must not hit an acoustic entry")
	}
	mx, err := NewSession(WithMesh(m), WithDt(1e-3), WithEquation(opcount.Maxwell), WithFlux(dg.CentralFlux))
	if err != nil {
		t.Fatal(err)
	}
	if mx.PlanCacheHit() {
		t.Fatal("maxwell must not hit an elastic entry")
	}
	if st := PlanCacheSnapshot(); st.Entries != 4 || st.Hits != 0 {
		t.Fatalf("snapshot = %+v, want 4 entries, 0 hits", st)
	}

	// dt is deliberately NOT in the key: it only changes loaded constants
	// (RowRK), never compiled programs or schedules.
	if s := sessionForTest(t, WithDt(5e-4)); !s.PlanCacheHit() {
		t.Fatal("a different dt must share the compiled plan")
	}

	k1 := PlanKey{Eq: opcount.Acoustic, Flux: dg.RiemannFlux, Np: 4, EPerAxis: 4, Chip: "512MB"}
	k2 := k1
	k2.Flux = dg.CentralFlux
	if k1.Digest() == k2.Digest() {
		t.Fatal("distinct keys share a digest")
	}
	if k1.Digest() != k1.Digest() {
		t.Fatal("digest is not deterministic")
	}
}

// Concurrent first-time construction builds the plan exactly once
// (singleflight) and every session gets a working plan. Run with -race.
func TestPlanCacheConcurrent(t *testing.T) {
	resetPlanCache()
	m := mesh.New(1, 4, true)

	const n = 8
	sessions := make([]*Session, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSession(WithMesh(m), WithDt(1e-3))
			if err != nil {
				t.Error(err)
				return
			}
			q := dg.NewAcousticState(m)
			dg.PlaneWaveX(m, fnMat, 1, q)
			s.Acoustic().Load(q)
			if err := s.Run(context.Background(), 1); err != nil {
				t.Error(err)
			}
			sessions[i] = s
		}(i)
	}
	wg.Wait()

	st := PlanCacheSnapshot()
	if st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("snapshot = %+v, want exactly 1 build", st)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, n-1)
	}
	ref := dg.NewAcousticState(m)
	sessions[0].Acoustic().ReadState(ref)
	for i := 1; i < n; i++ {
		q := dg.NewAcousticState(m)
		sessions[i].Acoustic().ReadState(q)
		for v, sl := range ref.Slices() {
			for j := range sl {
				if sl[j] != q.Slices()[v][j] {
					t.Fatalf("session %d diverges at var %d node %d", i, v, j)
				}
			}
		}
	}
}

// Publish exposes the cache counters as gauges.
func TestPlanCachePublished(t *testing.T) {
	resetPlanCache()
	sink := obs.NewSink()
	s := sessionForTest(t, WithObs(sink))
	if err := s.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := sink.Gauge("wavepim.plan_cache.misses").Value(); got != 1 {
		t.Fatalf("plan_cache.misses gauge = %v, want 1", got)
	}
	sessionForTest(t)
	s.Publish()
	if got := sink.Gauge("wavepim.plan_cache.hits").Value(); got != 1 {
		t.Fatalf("plan_cache.hits gauge = %v, want 1", got)
	}
}

// benchSession builds an uninstrumented acoustic session on the bench
// mesh (compilation cost only; no load, no steps).
func benchSession(b *testing.B) {
	m := mesh.New(1, 4, true)
	if _, err := NewSession(WithMesh(m), WithDt(1e-3)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSessionBuildCold measures full compilation: every iteration
// empties the plan cache first, so block-program compilation, transfer
// scheduling and LUT program construction all run.
func BenchmarkSessionBuildCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		resetPlanCache()
		benchSession(b)
	}
	resetPlanCache()
}

// BenchmarkSessionBuildWarm measures the cache-hit path: construction
// after the first reuses the compiled plan, so the remaining cost is
// chip allocation only.
func BenchmarkSessionBuildWarm(b *testing.B) {
	resetPlanCache()
	benchSession(b) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSession(b)
	}
}

// Copy groups are built once per cached plan: two sessions on one PlanKey
// share the plan, and every replay of a transfer phase copies by the
// groups the plan's phase carries, instead of regrouping it per session.
func TestCopyGroupsSharedAcrossSessions(t *testing.T) {
	m := mesh.New(1, 4, true)
	var sys [2]*system
	for i := range sys {
		s, err := NewSession(WithEquation(opcount.ElasticRiemann), WithMesh(m), WithDt(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		sys[i] = s.sys
	}
	if sys[0].plan != sys[1].plan || !sys[1].CacheHit {
		t.Fatal("the second session must share the first one's cached plan")
	}
	grouped := 0
	for _, p := range sys[0].plan.rhs {
		if p.progs == nil && p.groups != nil {
			grouped++
		}
	}
	if grouped == 0 {
		t.Fatal("the elastic plan has no grouped transfer phase")
	}
}
