// Package fault is a deterministic, seedable fault-injection layer for the
// memristor crossbar substrate. It models the canonical failure modes of
// resistive memory — manufacturing stuck-at-0/1 cells, per-write transient
// bit flips, and write-endurance wearout — at word granularity on the
// block write path, plus the detection half of the recovery ladder: a
// SECDED-style scrub that classifies corrupted words as correctable
// (single-bit) or uncorrectable.
//
// The package follows the same nil-safe zero-overhead-when-off pattern as
// obs.Sink: a Block keeps a *fault.BlockFaults pointer that is nil in
// golden-path runs, and every write-path hook is a single pointer
// comparison away from the fault-free fast path.
//
// Determinism is load-bearing: every fault decision is a pure hash of
// (seed, block id, cell index, per-cell write epoch), never of goroutine
// scheduling or map order. Two runs with the same seed — serial or
// parallel — inject bit-identical faults, which is what makes seeded fault
// scenarios reproducible and diffable byte-for-byte.
package fault

import (
	"math/bits"
	"sort"
)

// Config holds the injection knobs. The zero value injects nothing.
type Config struct {
	Seed uint64 // base seed for every hash-derived decision

	// StuckProb is the per-word probability that a word contains one
	// manufacturing stuck-at bit (polarity and bit position are
	// hash-derived). Stuck bits are static: every write to the word is
	// forced through the defect.
	StuckProb float64

	// FlipProb is the per-write probability of a transient single-bit
	// flip in the written word (a write-disturb / thermal-noise event).
	FlipProb float64

	// EnduranceWrites is the mean number of writes a word survives
	// before one of its bits wears out and freezes at the last written
	// value. 0 disables wearout. Per-word thresholds are hash-jittered
	// in [E/2, 3E/2) so cells do not all fail on the same step.
	EnduranceWrites uint64
}

// Enabled reports whether the configuration can inject any fault at all.
func (c Config) Enabled() bool {
	return c.StuckProb > 0 || c.FlipProb > 0 || c.EnduranceWrites > 0
}

// Hash salts separating the decision streams.
const (
	saltStuck = 0x5354_5543 // "STUC"
	saltFlip  = 0x464c_4950 // "FLIP"
	saltWear  = 0x5745_4152 // "WEAR"
)

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds the arguments into one hash value.
func mix(xs ...uint64) uint64 {
	h := uint64(0x51_7cc1b727220a95)
	for _, x := range xs {
		h = splitmix64(h ^ x)
	}
	return h
}

// u01 maps a hash to a uniform float64 in [0,1).
func u01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// stuckBit is a frozen bit: stored = v&^and0 | or1.
type stuckBit struct {
	and0 uint32 // mask of bits forced to 0
	or1  uint32 // mask of bits forced to 1
}

// Counts aggregates the fault activity of one block (or, summed, a chip).
type Counts struct {
	Flips         int64 `json:"flips"`         // transient flips injected
	StuckWrites   int64 `json:"stuck_writes"`  // writes altered by a stuck bit
	Wearouts      int64 `json:"wearouts"`      // cells that crossed their endurance threshold
	Detected      int64 `json:"detected"`      // corrupted words found by scrub
	Corrected     int64 `json:"corrected"`     // single-bit errors fixed by ECC
	Uncorrectable int64 `json:"uncorrectable"` // multi-bit or stuck errors ECC could not fix
	Retries       int64 `json:"retries"`       // verify-retry re-executions of a block program
}

// add accumulates o into c.
func (c *Counts) add(o Counts) {
	c.Flips += o.Flips
	c.StuckWrites += o.StuckWrites
	c.Wearouts += o.Wearouts
	c.Detected += o.Detected
	c.Corrected += o.Corrected
	c.Uncorrectable += o.Uncorrectable
	c.Retries += o.Retries
}

// BlockFaults is the per-block fault state. It is owned by exactly one
// goroutine at a time (the same single-owner discipline the engine already
// enforces for the block itself), so it needs no locking.
type BlockFaults struct {
	id  int
	cfg Config

	writes  map[uint32]uint64   // cell -> write count (the epoch stream)
	worn    map[uint32]stuckBit // cells frozen by endurance wearout
	pending map[uint32]uint32   // corrupted cell -> intended value
	counts  Counts
}

func newBlockFaults(id int, cfg Config) *BlockFaults {
	return &BlockFaults{
		id:      id,
		cfg:     cfg,
		writes:  make(map[uint32]uint64),
		worn:    make(map[uint32]stuckBit),
		pending: make(map[uint32]uint32),
	}
}

// cellOf packs a (row, word-offset) address into one cell index. The shift
// leaves room for 64 words per row, comfortably above the real 32.
func cellOf(row, off int) uint32 {
	return uint32(row)<<6 | uint32(off)
}

// CellAddr is the inverse of cellOf.
func CellAddr(cell uint32) (row, off int) {
	return int(cell >> 6), int(cell & 63)
}

// stuckMask returns the manufacturing stuck bit of a cell, if any. It is a
// pure function of (seed, block, cell), so it never needs to be stored.
func (bf *BlockFaults) stuckMask(cell uint32) (stuckBit, bool) {
	if bf.cfg.StuckProb <= 0 {
		return stuckBit{}, false
	}
	h := mix(bf.cfg.Seed, saltStuck, uint64(bf.id), uint64(cell))
	if u01(h) >= bf.cfg.StuckProb {
		return stuckBit{}, false
	}
	// Re-hash for position and polarity: h itself is conditioned small by
	// the threshold test above, so its own bits are not uniform.
	hb := splitmix64(h)
	bit := uint32(1) << (hb % 32)
	if hb>>63 == 0 {
		return stuckBit{and0: bit}, true // stuck-at-0
	}
	return stuckBit{or1: bit}, true // stuck-at-1
}

// wearThreshold is the hash-jittered endurance limit of a cell.
func (bf *BlockFaults) wearThreshold(cell uint32) uint64 {
	e := bf.cfg.EnduranceWrites
	h := mix(bf.cfg.Seed, saltWear, uint64(bf.id), uint64(cell))
	return e/2 + h%e
}

// Store models one word write: it applies transient flips, static stuck
// bits, and endurance wearout to the intended value, records the
// corruption (if any) for a later scrub, and returns the value that
// actually lands in the cells. The caller must hold single ownership of
// the block.
func (bf *BlockFaults) Store(row, off int, intended uint32) uint32 {
	cell := cellOf(row, off)
	epoch := bf.writes[cell]
	bf.writes[cell] = epoch + 1

	v := intended
	if bf.cfg.FlipProb > 0 {
		h := mix(bf.cfg.Seed, saltFlip, uint64(bf.id), uint64(cell), epoch)
		if u01(h) < bf.cfg.FlipProb {
			// Re-hash for the bit position: passing the threshold means h is
			// small, so h's own high bits would always pick bit 0.
			v ^= 1 << (splitmix64(h) % 32)
			bf.counts.Flips++
		}
	}
	if sb, ok := bf.stuckMask(cell); ok {
		nv := v&^sb.and0 | sb.or1
		if nv != v {
			bf.counts.StuckWrites++
		}
		v = nv
	}
	if bf.cfg.EnduranceWrites > 0 {
		sb, worn := bf.worn[cell]
		if !worn && epoch+1 >= bf.wearThreshold(cell) {
			// The bit freezes at the value being written right now.
			h := mix(bf.cfg.Seed, saltWear, uint64(bf.id), uint64(cell), epoch)
			bit := uint32(1) << (splitmix64(h) % 32)
			if v&bit != 0 {
				sb = stuckBit{or1: bit}
			} else {
				sb = stuckBit{and0: bit}
			}
			bf.worn[cell] = sb
			bf.counts.Wearouts++
			worn = true
		}
		if worn {
			v = v&^sb.and0 | sb.or1
		}
	}

	if v != intended {
		bf.pending[cell] = intended
	} else {
		delete(bf.pending, cell)
	}
	return v
}

// Pending reports how many corrupted words are awaiting a scrub.
func (bf *BlockFaults) Pending() int { return len(bf.pending) }

// Intended returns the value a corrupted cell was supposed to hold.
func (bf *BlockFaults) Intended(row, off int) (uint32, bool) {
	v, ok := bf.pending[cellOf(row, off)]
	return v, ok
}

// ScrubResult summarizes one ECC scrub pass over a block.
type ScrubResult struct {
	Detected      int64
	Corrected     int64
	Uncorrectable int64
}

// Scrub is the SECDED detect-and-correct pass: every corrupted word is
// compared against its intended value (the parity model gives perfect
// detection); a single-bit error is rewritten — through the fault path, so
// a stuck bit deterministically defeats the correction — and anything else
// is uncorrectable. The read/write callbacks are the caller's cell
// accessors.
func (bf *BlockFaults) Scrub(read func(row, off int) uint32, write func(row, off int, v uint32)) ScrubResult {
	var res ScrubResult
	if len(bf.pending) == 0 {
		return res
	}
	cells := make([]uint32, 0, len(bf.pending))
	for c := range bf.pending {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	for _, cell := range cells {
		intended := bf.pending[cell]
		row, off := CellAddr(cell)
		stored := read(row, off)
		if stored == intended {
			delete(bf.pending, cell)
			continue
		}
		res.Detected++
		if bits.OnesCount32(stored^intended) == 1 {
			write(row, off, intended) // goes back through Store: may re-corrupt
			if read(row, off) == intended {
				res.Corrected++
				continue
			}
		}
		res.Uncorrectable++
	}
	bf.counts.Detected += res.Detected
	bf.counts.Corrected += res.Corrected
	bf.counts.Uncorrectable += res.Uncorrectable
	return res
}

// SnapshotPending copies the corruption ledger, pairing a cell Snapshot
// taken before a retriable program. Write epochs are deliberately NOT part
// of the snapshot: a retry replays the program against fresh epochs, so
// transient flips resolve while stuck bits persist.
func (bf *BlockFaults) SnapshotPending() map[uint32]uint32 {
	out := make(map[uint32]uint32, len(bf.pending))
	for k, v := range bf.pending {
		out[k] = v
	}
	return out
}

// RestorePending rewinds the corruption ledger to a snapshot.
func (bf *BlockFaults) RestorePending(snap map[uint32]uint32) {
	bf.pending = make(map[uint32]uint32, len(snap))
	for k, v := range snap {
		bf.pending[k] = v
	}
}

// ClearPending drops the corruption ledger (the block has been retired by
// a spare-block remap; its data now lives elsewhere).
func (bf *BlockFaults) ClearPending() { bf.pending = make(map[uint32]uint32) }

// AddRetry records one verify-retry re-execution of this block's program.
func (bf *BlockFaults) AddRetry() { bf.counts.Retries++ }

// Counts returns the block's cumulative fault counters.
func (bf *BlockFaults) Counts() Counts { return bf.counts }
