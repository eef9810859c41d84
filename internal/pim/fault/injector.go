package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wavepim/internal/params"
)

// Typed failures of the recovery ladder. Both are latched into the engine
// error slot and surface through Session.Run via errors.Is.
var (
	// ErrNoSpares: a block failed uncorrectably and the spare pool is
	// exhausted — the run cannot be healed.
	ErrNoSpares = errors.New("fault: spare blocks exhausted")

	// ErrUnrecoverable: the solver-level rollback budget is spent and
	// the field state is still unhealthy.
	ErrUnrecoverable = errors.New("fault: unrecoverable after rollback budget")
)

// Recovery configures the self-healing ladder layered on top of
// injection. The zero value disables every rung.
type Recovery struct {
	// ECC enables the per-block SECDED scrub after every block phase,
	// with its cycle/energy cost charged to the simulated timeline.
	ECC bool

	// MaxRetries bounds verify-retry re-executions of a block program
	// whose scrub still reports uncorrectable errors.
	MaxRetries int

	// SpareBlocks is how many physical blocks the layout reserves as
	// remap targets for blocks that fail beyond retry.
	SpareBlocks int

	// CheckpointEvery takes a solver field checkpoint every N completed
	// time-steps (0 disables solver-level checks entirely).
	CheckpointEvery int

	// MaxRollbacks bounds checkpoint rollbacks before the run is
	// declared unrecoverable.
	MaxRollbacks int

	// BlowupFactor is the health guard: a checkpoint is rejected when
	// the squared field norm exceeds BlowupFactor times the previous
	// healthy checkpoint's (or any value is NaN/Inf).
	BlowupFactor float64
}

// DefaultRecovery is the full ladder with paper-plausible budgets.
func DefaultRecovery() Recovery {
	return Recovery{
		ECC:             true,
		MaxRetries:      2,
		SpareBlocks:     4,
		CheckpointEvery: 8,
		MaxRollbacks:    2,
		BlowupFactor:    1e3,
	}
}

// Injector owns the fault state of a whole chip: per-block fault maps plus
// chip-level recovery counters. It is shared between the engine's worker
// goroutines only through ForBlock (locked); each BlockFaults is then
// single-owner like its block.
type Injector struct {
	cfg Config
	rec Recovery

	mu          sync.Mutex
	blocks      map[int]*BlockFaults
	remapped    []int // logical ids migrated to spares, in remap order
	rollbacks   int64
	checkpoints int64
}

// NewInjector builds an injector from an injection config and a recovery
// policy.
func NewInjector(cfg Config, rec Recovery) *Injector {
	return &Injector{cfg: cfg, rec: rec, blocks: make(map[int]*BlockFaults)}
}

// Recovery returns the recovery policy.
func (in *Injector) Recovery() Recovery { return in.rec }

// ForBlock returns (lazily creating) the fault state of one physical
// block. Safe for concurrent use; the returned BlockFaults is not.
func (in *Injector) ForBlock(physID int) *BlockFaults {
	in.mu.Lock()
	defer in.mu.Unlock()
	bf, ok := in.blocks[physID]
	if !ok {
		bf = newBlockFaults(physID, in.cfg)
		in.blocks[physID] = bf
	}
	return bf
}

// NoteRemap records a spare-block migration of a logical block.
func (in *Injector) NoteRemap(logical int) {
	in.mu.Lock()
	in.remapped = append(in.remapped, logical)
	in.mu.Unlock()
}

// NoteRollback records one solver-level checkpoint rollback.
func (in *Injector) NoteRollback() {
	in.mu.Lock()
	in.rollbacks++
	in.mu.Unlock()
}

// NoteCheckpoint records one solver field checkpoint.
func (in *Injector) NoteCheckpoint() {
	in.mu.Lock()
	in.checkpoints++
	in.mu.Unlock()
}

// Report is the per-run fault summary. Field order is the JSON order, so
// two identical runs marshal byte-identically.
type Report struct {
	Seed           uint64  `json:"seed"`
	StuckProb      float64 `json:"stuck_prob"`
	FlipProb       float64 `json:"flip_prob"`
	Endurance      uint64  `json:"endurance_writes"`
	FaultyBlocks   int     `json:"faulty_blocks"` // blocks with any fault activity
	Counts         Counts  `json:"counts"`
	Remaps         int64   `json:"remaps"`
	RemappedBlocks []int   `json:"remapped_blocks"`
	Checkpoints    int64   `json:"checkpoints"`
	Rollbacks      int64   `json:"rollbacks"`
	SparesUsed     int     `json:"spares_used"`
	SparesLeft     int     `json:"spares_left"`
}

// Report aggregates every block's counters (in sorted block order) plus
// the chip-level recovery counters. SparesUsed/SparesLeft are filled by
// the engine, which owns the spare pool.
func (in *Injector) Report() Report {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := Report{
		Seed:           in.cfg.Seed,
		StuckProb:      in.cfg.StuckProb,
		FlipProb:       in.cfg.FlipProb,
		Endurance:      in.cfg.EnduranceWrites,
		Remaps:         int64(len(in.remapped)),
		RemappedBlocks: append([]int(nil), in.remapped...),
		Checkpoints:    in.checkpoints,
		Rollbacks:      in.rollbacks,
	}
	ids := make([]int, 0, len(in.blocks))
	for id := range in.blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := in.blocks[id].counts
		if c != (Counts{}) {
			r.FaultyBlocks++
		}
		r.Counts.add(c)
	}
	return r
}

// String renders the report as a compact human-readable summary.
func (r Report) String() string {
	return fmt.Sprintf(
		"faults: seed=%d injected(flips=%d stuck=%d wearouts=%d) "+
			"ecc(detected=%d corrected=%d uncorrectable=%d) "+
			"recovery(retries=%d remaps=%d checkpoints=%d rollbacks=%d) spares(used=%d left=%d)",
		r.Seed, r.Counts.Flips, r.Counts.StuckWrites, r.Counts.Wearouts,
		r.Counts.Detected, r.Counts.Corrected, r.Counts.Uncorrectable,
		r.Counts.Retries, r.Remaps, r.Checkpoints, r.Rollbacks,
		r.SparesUsed, r.SparesLeft)
}

// ParseSpec parses the CLI fault spec "seed=N,flip=P,stuck=P,wear=N".
// Every key is optional; unknown keys are an error.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	err := parseKVs(spec, func(k, v string) error {
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return fmt.Errorf("seed: %w", err)
			}
			cfg.Seed = n
		case "flip":
			p, err := parseProb(v)
			if err != nil {
				return fmt.Errorf("flip: %w", err)
			}
			cfg.FlipProb = p
		case "stuck":
			p, err := parseProb(v)
			if err != nil {
				return fmt.Errorf("stuck: %w", err)
			}
			cfg.StuckProb = p
		case "wear":
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return fmt.Errorf("wear: %w", err)
			}
			cfg.EnduranceWrites = n
		default:
			return fmt.Errorf("unknown fault key %q (want seed, flip, stuck, wear)", k)
		}
		return nil
	})
	return cfg, err
}

// ParseRecoverySpec parses the CLI recovery spec
// "ecc=1,retries=N,spares=N,ckpt=N,rollbacks=N,blowup=F". Unset keys keep
// the DefaultRecovery value.
func ParseRecoverySpec(spec string) (Recovery, error) {
	rec := DefaultRecovery()
	err := parseKVs(spec, func(k, v string) error {
		switch k {
		case "ecc":
			on, err := strconv.ParseBool(v)
			if err != nil {
				return fmt.Errorf("ecc: %w", err)
			}
			rec.ECC = on
		case "retries":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("retries: bad value %q", v)
			}
			rec.MaxRetries = n
		case "spares":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("spares: bad value %q", v)
			}
			rec.SpareBlocks = n
		case "ckpt":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("ckpt: bad value %q", v)
			}
			rec.CheckpointEvery = n
		case "rollbacks":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("rollbacks: bad value %q", v)
			}
			rec.MaxRollbacks = n
		case "blowup":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return fmt.Errorf("blowup: bad value %q", v)
			}
			rec.BlowupFactor = f
		default:
			return fmt.Errorf("unknown recovery key %q (want ecc, retries, spares, ckpt, rollbacks, blowup)", k)
		}
		return nil
	})
	return rec, err
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v out of [0,1]", p)
	}
	return p, nil
}

func parseKVs(spec string, set func(k, v string) error) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("bad spec element %q (want key=value)", kv)
		}
		if err := set(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			return err
		}
	}
	return nil
}

// ScrubCost is the simulated cost of one ECC scrub pass: a data-row read
// plus a parity-row read, and a row write per corrected word.
func ScrubCost(corrected int) (sec, joules float64) {
	sec = 2*params.BlockRowReadLatency + float64(corrected)*params.BlockRowWriteLatency
	joules = 2*params.RowBufferReadEnergyJ + float64(corrected)*params.RowBufferWriteEnergyJ
	return sec, joules
}

// BackoffCost is the simulated stall before retry attempt n (linear
// backoff in units of the row-write latency, modeling controller
// re-issue overhead).
func BackoffCost(attempt int) (sec, joules float64) {
	return float64(attempt) * 8 * params.BlockRowWriteLatency, 0
}
