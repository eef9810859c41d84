package cluster

import (
	"fmt"
	"math"

	"wavepim/internal/dg/opcount"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/fault"
	"wavepim/internal/wavepim"
)

// JobSpec is the wire shape of one functional simulation job. It is the
// POST /runs body a worker accepts and the POST /jobs body the
// coordinator accepts — one type travels the whole cluster (internal/
// serve aliases it), which is what lets the coordinator forward
// submissions verbatim and content-address them consistently.
type JobSpec struct {
	ID         string  `json:"id,omitempty"`       // idempotency key (optional)
	Equation   string  `json:"equation"`           // acoustic | elastic-central | elastic-riemann | maxwell
	Refine     int     `json:"refine"`             // mesh refinement level (default 1)
	Np         int     `json:"np"`                 // GLL nodes per axis (default 4)
	Steps      int     `json:"steps"`              // time steps (default 4)
	CFL        float64 `json:"cfl"`                // CFL number for dt (default 0.3)
	Workers    int     `json:"workers"`            // engine worker pool (default: per core)
	Faults     string  `json:"faults"`             // fault.ParseSpec string, e.g. "seed=4,flip=1e-5"
	Recover    string  `json:"recover"`            // fault.ParseRecoverySpec string
	DeadlineMS int     `json:"deadline_ms"`        // wall-clock run deadline (0: none)
	Topology   string  `json:"topology,omitempty"` // tile interconnect: htree (default) | bus | mesh | torus | flatfly | dragonfly
	Tenant     string  `json:"tenant,omitempty"`   // admission-control tenant ("" is the anonymous tenant)
	Priority   string  `json:"priority,omitempty"` // high | normal (default) | low
}

// EquationOf maps the wire name to the opcount constant.
func EquationOf(s string) (opcount.Equation, bool) {
	switch s {
	case "", "acoustic":
		return opcount.Acoustic, true
	case "elastic-central":
		return opcount.ElasticCentral, true
	case "elastic-riemann":
		return opcount.ElasticRiemann, true
	case "maxwell":
		return opcount.Maxwell, true
	}
	return 0, false
}

// maxSpecBlocks caps the crossbar blocks one job may occupy: the
// PIM-2GB chip's 16,384 blocks, 2 GiB of modelled cells, which a worker
// materialises as 128 KiB of host memory per block. It admits refine 4
// for every equation (4,096 elements at up to four blocks each) and
// rejects refine 5, so no spec can make a worker allocate more.
var maxSpecBlocks = chip.Config2GB().NumBlocks()

// SpecError is a job spec Normalize rejected: the JSON field at fault and
// why. Every boundary that accepts a spec answers it with 400 bad_request.
type SpecError struct {
	Field  string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("bad job spec: %s: %s", e.Field, e.Reason)
}

// Normalize is the one place that decides what a spec means. It fills
// the defaults (equation acoustic, refine 1, np 4, steps 4, CFL 0.3,
// topology htree, priority normal: a zero field selects its default),
// canonicalises the id, and checks every bound a worker relies on, so a
// spec it accepts cannot panic the simulation it describes. A rejected
// spec returns a *SpecError. Normalize is idempotent.
func (s JobSpec) Normalize() (JobSpec, error) {
	bad := func(field, format string, args ...any) (JobSpec, error) {
		return JobSpec{}, &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if s.ID != "" {
		id, err := NormalizeJobID(s.ID)
		if err != nil {
			return bad("id", "%v", err)
		}
		s.ID = id
	}
	if s.Equation == "" {
		s.Equation = "acoustic"
	}
	eq, ok := EquationOf(s.Equation)
	if !ok {
		return bad("equation", "unknown equation %q (want acoustic, elastic-central, elastic-riemann, maxwell)", s.Equation)
	}
	plan, _ := wavepim.SessionPlan(eq) // defined for every equation EquationOf knows
	s.Refine = orDefault(s.Refine, 1)
	s.Np = orDefault(s.Np, 4)
	s.Steps = orDefault(s.Steps, 4)
	s.CFL = orDefault(s.CFL, 0.3)
	blocks := plan.SlotsPerElem
	for i := 0; i < s.Refine && blocks <= maxSpecBlocks; i++ {
		blocks *= 8 // each refinement splits every element in eight
	}
	switch {
	case s.Refine < 0:
		return bad("refine", "%d is negative", s.Refine)
	case blocks > maxSpecBlocks:
		return bad("refine", "%d needs more crossbar blocks than the cap of %d (8^refine elements, %d per element)",
			s.Refine, maxSpecBlocks, plan.SlotsPerElem)
	case s.Np < wavepim.MinNp || s.Np > wavepim.MaxNp:
		return bad("np", "%d outside [%d,%d]", s.Np, wavepim.MinNp, wavepim.MaxNp)
	case s.Steps < 0:
		return bad("steps", "%d is negative", s.Steps)
	case !(s.CFL > 0) || math.IsInf(s.CFL, 1):
		return bad("cfl", "%g is not a positive finite number", s.CFL)
	case s.Workers < 0:
		return bad("workers", "%d is negative", s.Workers)
	case s.DeadlineMS < 0:
		return bad("deadline_ms", "%d is negative", s.DeadlineMS)
	}
	topo, err := chip.ParseInterconnect(s.Topology)
	if err != nil {
		return bad("topology", "%v", err)
	}
	s.Topology = string(topo)
	if s.Faults != "" {
		if _, err := fault.ParseSpec(s.Faults); err != nil {
			return bad("faults", "%v", err)
		}
	}
	if s.Recover != "" {
		if _, err := fault.ParseRecoverySpec(s.Recover); err != nil {
			return bad("recover", "%v", err)
		}
	}
	prio, err := ParsePriority(s.Priority)
	if err != nil {
		return bad("priority", "%v", err)
	}
	s.Priority = prio.String()
	return s, nil
}

// orDefault maps a zero field to its default.
func orDefault[T int | float64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// Digest content-addresses the simulation a spec requests: two specs
// with equal digests describe the same deterministic run. It hashes the
// normalised spec, so a field left zero and the same field set to its
// default share a digest; a spec Normalize rejects describes no run and
// digests to 0. The static problem geometry reuses the plan cache's
// PlanKey digest (the same content address the workers' compiled-plan
// cache keys on), and the dynamic fields — steps, CFL, fault and
// recovery specs — are folded on top with FNV-1a. Topology changes the
// simulated timing and energy, so it is part of the address.
// Scheduling-only fields (ID, Tenant, Priority, Workers, DeadlineMS) are
// deliberately excluded: they change who runs the job and when, not what
// it computes, so the coordinator's result cache can serve a duplicate
// submission without touching a worker.
func (s JobSpec) Digest() uint64 {
	n, err := s.Normalize()
	if err != nil {
		return 0
	}
	eq, _ := EquationOf(n.Equation)
	k := wavepim.PlanKey{
		Eq:       eq,
		Flux:     wavepim.FluxFor(eq),
		Np:       n.Np,
		EPerAxis: 1 << n.Refine,
		Chip:     "auto",
		Topo:     n.Topology,
	}
	const prime = 1099511628211
	h := k.Digest()
	for _, c := range []byte(fmt.Sprintf("|steps=%d|cfl=%g|faults=%s|recover=%s",
		n.Steps, n.CFL, n.Faults, n.Recover)) {
		h ^= uint64(c)
		h *= prime
	}
	return mix64(h)
}
