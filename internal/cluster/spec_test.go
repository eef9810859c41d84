package cluster

import (
	"errors"
	"math"
	"testing"
)

// TestJobSpecDigestTopology: the content digest distinguishes topologies
// (the same spec on two fabrics is two distinct cached results), while
// the empty string and "htree" normalize to one digest, and scheduling-
// only fields stay excluded.
func TestJobSpecDigestTopology(t *testing.T) {
	base := JobSpec{Equation: "acoustic", Steps: 4}
	d0 := base.Digest()

	ht := base
	ht.Topology = "htree"
	if ht.Digest() != d0 {
		t.Error("empty and htree topologies must share a digest (same run requested)")
	}

	seen := map[uint64]string{d0: "htree"}
	for _, topo := range []string{"bus", "mesh", "torus", "flatfly", "dragonfly"} {
		s := base
		s.Topology = topo
		d := s.Digest()
		if prev, ok := seen[d]; ok {
			t.Errorf("topology %q digest collides with %q", topo, prev)
		}
		seen[d] = topo
	}

	sched := base
	sched.ID, sched.Tenant, sched.Priority = "j1", "acme", "high"
	sched.Workers, sched.DeadlineMS = 8, 5000
	if sched.Digest() != d0 {
		t.Error("scheduling-only fields leaked into the content digest")
	}

	dyn := base
	dyn.Faults = "seed=4,flip=1e-5"
	if dyn.Digest() == d0 {
		t.Error("fault spec must change the content digest")
	}
}

// digestPinSpecs is a table of valid specs with their content digests,
// captured as literals before the spec's defaults and bounds moved into
// one validator: zero-valued fields, the same with every default spelled
// out, each equation, each topology, a faulted spec, non-default
// geometry, and scheduling-only fields.
var digestPinSpecs = []struct {
	name string
	spec JobSpec
	want uint64
}{
	{"zero", JobSpec{}, 0x3a3ef6c218a0329f},
	{"explicit defaults", JobSpec{Equation: "acoustic", Refine: 1, Np: 4, Steps: 4, CFL: 0.3, Topology: "htree", Priority: "normal"}, 0x3a3ef6c218a0329f},
	{"acoustic", JobSpec{Equation: "acoustic"}, 0x3a3ef6c218a0329f},
	{"elastic-central", JobSpec{Equation: "elastic-central"}, 0x8c562b931e7368a2},
	{"elastic-riemann", JobSpec{Equation: "elastic-riemann"}, 0x08ecdc326da4eaa7},
	{"maxwell", JobSpec{Equation: "maxwell"}, 0x733f9c3ba7b2eff3},
	{"htree", JobSpec{Topology: "htree"}, 0x3a3ef6c218a0329f},
	{"bus", JobSpec{Topology: "bus"}, 0x75ffb36cd2400bd8},
	{"mesh", JobSpec{Topology: "mesh"}, 0x684801d9f3273124},
	{"torus", JobSpec{Topology: "torus"}, 0x9b808149e8fe58ab},
	{"flatfly", JobSpec{Topology: "flatfly"}, 0x8cb05b0a82122abf},
	{"dragonfly", JobSpec{Topology: "dragonfly"}, 0xafde9e69870f64eb},
	{"faults+recover", JobSpec{Equation: "elastic-riemann", Steps: 6,
		Faults: "seed=4,flip=1e-5", Recover: "ecc=1,retries=2,spares=4"}, 0xb96ab8e1aef6d2b1},
	{"geometry", JobSpec{Equation: "maxwell", Refine: 2, Np: 3, Steps: 10, CFL: 0.25, Topology: "torus"}, 0x4d985858e021d1e6},
	{"scheduling-only", JobSpec{ID: "Job-1", Tenant: "acme", Priority: "high",
		Workers: 8, DeadlineMS: 5000}, 0x3a3ef6c218a0329f},
}

// TestJobSpecDigestPinned holds every pinned spec's Digest still. The
// digest is the coordinator's content address (its result cache and its
// journaled job tables key on it), so a change that moves one of these
// values changed what a spec means, not just code. Do not re-capture
// these values to make a change pass.
func TestJobSpecDigestPinned(t *testing.T) {
	for _, tc := range digestPinSpecs {
		if got := tc.spec.Digest(); got != tc.want {
			t.Errorf("%s: Digest() = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestJobSpecNormalize: zero fields take their defaults, the result is
// idempotent, and every bound rejects with a typed *SpecError naming its
// JSON field.
func TestJobSpecNormalize(t *testing.T) {
	got, err := JobSpec{ID: " Job-1 "}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{ID: "job-1", Equation: "acoustic", Refine: 1, Np: 4, Steps: 4, CFL: 0.3,
		Topology: "htree", Priority: "normal"}
	if got != want {
		t.Fatalf("defaults: got %+v, want %+v", got, want)
	}
	for _, tc := range digestPinSpecs {
		n, err := tc.spec.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if again, err := n.Normalize(); err != nil || again != n {
			t.Fatalf("%s: not idempotent: %+v -> %+v (%v)", tc.name, n, again, err)
		}
		if n.Digest() != tc.spec.Digest() {
			t.Fatalf("%s: normalizing moved the digest", tc.name)
		}
	}

	// The block cap admits refine 4 for every equation and refine 5 for none.
	for _, eq := range []string{"acoustic", "elastic-central", "elastic-riemann", "maxwell"} {
		if _, err := (JobSpec{Equation: eq, Refine: 4}).Normalize(); err != nil {
			t.Errorf("%s refine 4: %v", eq, err)
		}
		if _, err := (JobSpec{Equation: eq, Refine: 5}).Normalize(); err == nil {
			t.Errorf("%s refine 5 passed the block cap", eq)
		}
	}

	for _, tc := range []struct {
		spec  JobSpec
		field string
	}{
		{JobSpec{ID: "no spaces!"}, "id"},
		{JobSpec{Equation: "navier-stokes"}, "equation"},
		{JobSpec{Refine: -1}, "refine"},
		{JobSpec{Refine: 11}, "refine"},
		{JobSpec{Refine: 1 << 40}, "refine"},
		{JobSpec{Np: 1}, "np"},
		{JobSpec{Np: 9}, "np"},
		{JobSpec{Np: -4}, "np"},
		{JobSpec{Steps: -3}, "steps"},
		{JobSpec{CFL: -1}, "cfl"},
		{JobSpec{CFL: math.Inf(1)}, "cfl"},
		{JobSpec{CFL: math.NaN()}, "cfl"},
		{JobSpec{Workers: -1}, "workers"},
		{JobSpec{DeadlineMS: -1}, "deadline_ms"},
		{JobSpec{Topology: "hypercube"}, "topology"},
		{JobSpec{Faults: "seed=banana"}, "faults"},
		{JobSpec{Recover: "retries=lots"}, "recover"},
		{JobSpec{Priority: "urgent"}, "priority"},
	} {
		_, err := tc.spec.Normalize()
		var se *SpecError
		if !errors.As(err, &se) || se.Field != tc.field {
			t.Errorf("%+v: got %v, want a *SpecError on %q", tc.spec, err, tc.field)
		}
		if tc.spec.Digest() != 0 {
			t.Errorf("%+v: rejected spec has a non-zero digest", tc.spec)
		}
	}
}
