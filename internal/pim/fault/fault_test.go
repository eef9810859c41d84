package fault

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"testing"
)

// TestStoreDeterminism: two injectors with the same seed must corrupt the
// same writes identically — fault decisions are pure hashes, never state
// shared across blocks or runs.
func TestStoreDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, FlipProb: 0.1, StuckProb: 0.05, EnduranceWrites: 50}
	a := NewInjector(cfg, Recovery{}).ForBlock(3)
	b := NewInjector(cfg, Recovery{}).ForBlock(3)
	for row := 0; row < 8; row++ {
		for off := 0; off < 32; off++ {
			for w := 0; w < 4; w++ {
				v := uint32(row*1000 + off*10 + w)
				if got, want := a.Store(row, off, v), b.Store(row, off, v); got != want {
					t.Fatalf("Store(%d,%d,%#x) diverged: %#x vs %#x", row, off, v, got, want)
				}
			}
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counters diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
	if a.Counts().Flips == 0 || a.Counts().StuckWrites == 0 {
		t.Fatalf("scenario too quiet to be a determinism test: %+v", a.Counts())
	}
}

// TestStoreDifferentSeedsDiffer: the seed must actually steer injection.
func TestStoreDifferentSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) Counts {
		bf := NewInjector(Config{Seed: seed, FlipProb: 0.1}, Recovery{}).ForBlock(0)
		for i := 0; i < 512; i++ {
			bf.Store(i/32, i%32, uint32(i))
		}
		return bf.Counts()
	}
	if mk(1) == mk(2) {
		t.Fatal("seeds 1 and 2 produced identical fault activity")
	}
}

// TestStuckBitStatic: with StuckProb=1 every word has exactly one stuck
// bit, and it is the SAME bit on every write — a manufacturing defect, not
// a transient.
func TestStuckBitStatic(t *testing.T) {
	bf := NewInjector(Config{Seed: 7, StuckProb: 1}, Recovery{}).ForBlock(0)
	v0 := bf.Store(0, 0, 0)          // stuck-at-1 shows against all-zeros
	v1 := bf.Store(0, 0, 0xffffffff) // stuck-at-0 shows against all-ones
	d0, d1 := v0, ^v1
	if bits.OnesCount32(d0|d1) != 1 {
		t.Fatalf("want exactly one stuck bit, got masks %#x (at-1) %#x (at-0)", d0, d1)
	}
	// Repeat: the defect must not move.
	if bf.Store(0, 0, 0) != v0 || bf.Store(0, 0, 0xffffffff) != v1 {
		t.Fatal("stuck bit moved between writes")
	}
	// A write of the stuck value itself lands clean and clears pending.
	clean := v0 | (0xffffffff &^ ^v1) // any value compatible with the defect
	_ = clean
	if got := bf.Store(0, 0, v0); got != v0 {
		t.Fatalf("writing the stuck-compatible value %#x stored %#x", v0, got)
	}
	if _, corrupted := bf.Intended(0, 0); corrupted {
		t.Fatal("stuck-compatible write left the cell marked corrupted")
	}
}

// TestWearout: a cell freezes one bit after its jittered threshold in
// [E/2, 3E/2) writes, and stays frozen.
func TestWearout(t *testing.T) {
	const e = 10
	bf := NewInjector(Config{Seed: 9, EnduranceWrites: e}, Recovery{}).ForBlock(0)
	for i := 0; i < e/2-1; i++ {
		bf.Store(0, 0, 0xaaaaaaaa)
	}
	if bf.Counts().Wearouts != 0 {
		t.Fatalf("cell wore out before E/2 writes: %+v", bf.Counts())
	}
	for i := 0; i < e+1; i++ { // past 3E/2 total
		bf.Store(0, 0, 0xaaaaaaaa)
	}
	if bf.Counts().Wearouts != 1 {
		t.Fatalf("want exactly one wearout, got %+v", bf.Counts())
	}
	// The bit froze at the written value (0xaaaaaaaa pattern), so writing
	// the complement must differ in exactly the frozen bit.
	got := bf.Store(0, 0, 0x55555555)
	if diff := got ^ 0x55555555; bits.OnesCount32(diff) != 1 {
		t.Fatalf("want one frozen bit, store of ~pattern differs by %#x", diff)
	}
}

// TestScrubCorrectsTransients: single-bit transient flips are detected and
// (usually) corrected by the scrub pass; the pending ledger drains to the
// uncorrectable residue.
func TestScrubCorrectsTransients(t *testing.T) {
	bf := NewInjector(Config{Seed: 3, FlipProb: 0.2}, Recovery{}).ForBlock(1)
	storage := map[[2]int]uint32{}
	write := func(row, off int, v uint32) {
		storage[[2]int{row, off}] = bf.Store(row, off, v)
	}
	read := func(row, off int) uint32 { return storage[[2]int{row, off}] }

	for i := 0; i < 256; i++ {
		write(i/32, i%32, uint32(i*2654435761))
	}
	before := bf.Pending()
	if before == 0 {
		t.Fatal("no corruption at FlipProb=0.2 over 256 writes")
	}
	res := bf.Scrub(read, write)
	if res.Detected != int64(before) {
		t.Fatalf("detected %d of %d corrupted words", res.Detected, before)
	}
	if res.Corrected == 0 {
		t.Fatal("scrub corrected nothing")
	}
	if res.Corrected+res.Uncorrectable != res.Detected {
		t.Fatalf("corrected %d + uncorrectable %d != detected %d", res.Corrected, res.Uncorrectable, res.Detected)
	}
	if got := bf.Pending(); int64(got) != res.Uncorrectable {
		t.Fatalf("pending after scrub = %d, want the uncorrectable residue %d", got, res.Uncorrectable)
	}
}

// TestScrubDefeatedByStuck: a stuck bit is single-bit (so ECC tries) but
// the correction write re-corrupts through the same defect — deterministic
// uncorrectable.
func TestScrubDefeatedByStuck(t *testing.T) {
	bf := NewInjector(Config{Seed: 7, StuckProb: 1}, Recovery{}).ForBlock(0)
	storage := map[[2]int]uint32{}
	write := func(row, off int, v uint32) { storage[[2]int{row, off}] = bf.Store(row, off, v) }
	read := func(row, off int) uint32 { return storage[[2]int{row, off}] }

	// Probe the defect's polarity, then write the value it corrupts.
	victim := uint32(0xffffffff) // corrupted by stuck-at-0
	if bf.Store(0, 0, 0) != 0 {
		victim = 0 // stuck-at-1
	}
	write(0, 0, victim)
	if bf.Pending() == 0 {
		t.Fatal("no corruption with StuckProb=1")
	}
	res := bf.Scrub(read, write)
	if res.Uncorrectable != res.Detected || res.Corrected != 0 {
		t.Fatalf("stuck bit should defeat ECC: %+v", res)
	}
}

// TestSnapshotRestorePending: the retry path rewinds the corruption ledger
// but not the write epochs.
func TestSnapshotRestorePending(t *testing.T) {
	bf := NewInjector(Config{Seed: 11, FlipProb: 0.3}, Recovery{}).ForBlock(2)
	for i := 0; i < 64; i++ {
		bf.Store(0, i%32, uint32(i))
	}
	snap := bf.SnapshotPending()
	n := bf.Pending()
	for i := 0; i < 64; i++ {
		bf.Store(1, i%32, uint32(i))
	}
	if bf.Pending() == n && len(snap) == 0 {
		t.Skip("scenario injected nothing")
	}
	bf.RestorePending(snap)
	if bf.Pending() != n {
		t.Fatalf("restore gave %d pending, want %d", bf.Pending(), n)
	}
	bf.ClearPending()
	if bf.Pending() != 0 {
		t.Fatal("ClearPending left residue")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42, flip=1e-7, stuck=0.001, wear=100000")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 42, FlipProb: 1e-7, StuckProb: 0.001, EnduranceWrites: 100000}
	if cfg != want {
		t.Fatalf("got %+v want %+v", cfg, want)
	}
	if c, err := ParseSpec(""); err != nil || c.Enabled() {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{"seed", "flip=2", "stuck=-1", "bogus=1", "flip=abc"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestParseRecoverySpec(t *testing.T) {
	rec, err := ParseRecoverySpec("ecc=0,retries=5,spares=2,ckpt=16,rollbacks=1,blowup=10")
	if err != nil {
		t.Fatal(err)
	}
	want := Recovery{ECC: false, MaxRetries: 5, SpareBlocks: 2, CheckpointEvery: 16, MaxRollbacks: 1, BlowupFactor: 10}
	if rec != want {
		t.Fatalf("got %+v want %+v", rec, want)
	}
	if rec, err := ParseRecoverySpec(""); err != nil || rec != DefaultRecovery() {
		t.Fatalf("empty spec should keep defaults: %+v, %v", rec, err)
	}
	for _, bad := range []string{"ecc=maybe", "retries=-1", "blowup=0", "nope=1"} {
		if _, err := ParseRecoverySpec(bad); err == nil {
			t.Errorf("ParseRecoverySpec(%q) accepted", bad)
		}
	}
}

// TestReportJSONDeterministic: identical runs marshal byte-identically —
// the property the CI reproducibility guard diffs on.
func TestReportJSONDeterministic(t *testing.T) {
	run := func() []byte {
		in := NewInjector(Config{Seed: 5, FlipProb: 0.1}, DefaultRecovery())
		for _, id := range []int{4, 1, 9} { // attach in non-sorted order
			bf := in.ForBlock(id)
			for i := 0; i < 128; i++ {
				bf.Store(i/32, i%32, uint32(i))
			}
		}
		in.NoteCheckpoint()
		in.NoteRemap(4)
		in.NoteRollback()
		b, err := json.MarshalIndent(in.Report(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", a, b)
	}
	r := NewInjector(Config{}, Recovery{}).Report()
	if r.FaultyBlocks != 0 || r.Counts != (Counts{}) {
		t.Fatalf("zero injector reported activity: %+v", r)
	}
}

// TestCostsMonotone: recovery costs must be positive and grow with work,
// or the timeline accounting is meaningless.
func TestCostsMonotone(t *testing.T) {
	s0, j0 := ScrubCost(0)
	s2, j2 := ScrubCost(2)
	if s0 <= 0 || j0 <= 0 || s2 <= s0 || j2 <= j0 {
		t.Fatalf("ScrubCost not monotone: (%g,%g) -> (%g,%g)", s0, j0, s2, j2)
	}
	b0, _ := BackoffCost(0)
	b1, _ := BackoffCost(1)
	b2, _ := BackoffCost(2)
	if b0 != 0 || b1 <= 0 || b2 <= b1 {
		t.Fatalf("BackoffCost not monotone: %g %g %g", b0, b1, b2)
	}
}
