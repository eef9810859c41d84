package chip

import (
	"math"
	"sync"
	"testing"

	"wavepim/internal/params"
	"wavepim/internal/pim/xbar"
)

func TestConfigGeometry(t *testing.T) {
	cases := []struct {
		cfg    Config
		blocks int
		tiles  int
	}{
		{Config512MB(), 4096, 16},
		{Config2GB(), 16384, 64},
		{Config8GB(), 65536, 256},
		{Config16GB(), 131072, 512},
	}
	for _, c := range cases {
		if got := c.cfg.NumBlocks(); got != c.blocks {
			t.Errorf("%s: %d blocks, want %d", c.cfg.Name, got, c.blocks)
		}
		if got := c.cfg.NumTiles(); got != c.tiles {
			t.Errorf("%s: %d tiles, want %d", c.cfg.Name, got, c.tiles)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.cfg.Name, err)
		}
	}
}

func TestMaxParallelRows2GB(t *testing.T) {
	// Section 7.1: "the maximum parallelism (2GB/1,024b = 16M)".
	if got := Config2GB().MaxParallelRows(); got != 16<<20 {
		t.Errorf("2GB parallel rows = %d, want 16M", got)
	}
}

func TestMixedThroughputMatchesTable2(t *testing.T) {
	// Table 2 lists the 2GB PIM throughput as ~7.25 TFLOP/s for the 50/50
	// add/mul mix (the paper's "16M" rows are decimal; ours are binary
	// 16.78M, giving 7.63 TFLOP/s — within 6%).
	got := params.MixedThroughputFLOPS(2 << 30)
	if got < 7.0e12 || got > 7.7e12 {
		t.Errorf("2GB mixed throughput %.3g, want ~7.25 TFLOP/s", got)
	}
}

func TestPowerModelMatchesTable3(t *testing.T) {
	// 2 GB chip, H-tree: Table 3 totals 115.02 W; our component-wise sum
	// must land within 3% (the paper's own rows round inconsistently: 64 x
	// 1.68 + 6.41 + 3.06 = 116.99, already 1.7% from its printed total).
	p := PowerModel(Config2GB())
	if rel := math.Abs(p.TotalW-params.PowerChip2GBHTreeW) / params.PowerChip2GBHTreeW; rel > 0.03 {
		t.Errorf("2GB H-tree power %.2f W, want within 3%% of %.2f W", p.TotalW, params.PowerChip2GBHTreeW)
	}
	// Tile memory = 256 crossbar arrays = 1.57 W.
	if math.Abs(p.TileMemoryW-params.PowerTileMemoryW) > 0.01 {
		t.Errorf("tile memory %.4f W, want %.2f W", p.TileMemoryW, params.PowerTileMemoryW)
	}
	// Tile totals: 1.68 W (H-tree).
	if math.Abs(p.TileW-params.PowerTileHTreeW) > 0.01 {
		t.Errorf("H-tree tile %.4f W, want %.2f W", p.TileW, params.PowerTileHTreeW)
	}

	bus := Config2GB()
	bus.Interconnect = Bus
	pb := PowerModel(bus)
	if rel := math.Abs(pb.TotalW-params.PowerChip2GBBusW) / params.PowerChip2GBBusW; rel > 0.03 {
		t.Errorf("2GB bus power %.2f W, want within 3%% of %.2f W", pb.TotalW, params.PowerChip2GBBusW)
	}
	if math.Abs(pb.TileW-params.PowerTileBusW) > 0.01 {
		t.Errorf("bus tile %.4f W, want %.2f W", pb.TileW, params.PowerTileBusW)
	}
	if pb.TotalW >= p.TotalW {
		t.Error("bus chip must draw less static power than H-tree chip")
	}
}

func TestMemoryBlockPowerComponents(t *testing.T) {
	// Table 3: crossbar 6.14 + sense amps 2.38 + decoder 0.31 = 8.83 mW.
	sum := params.PowerCrossbarArrayW + params.PowerSenseAmpW + params.PowerDecoderW
	if math.Abs(sum-params.PowerMemoryBlockW) > 1e-9 {
		t.Errorf("block components sum %.5f W, want %.5f W", sum, params.PowerMemoryBlockW)
	}
}

func TestPowerScalesWithCapacity(t *testing.T) {
	var prev float64
	for _, cfg := range AllConfigs() {
		p := PowerModel(cfg)
		if p.TotalW <= prev {
			t.Errorf("%s: power %.2f W should exceed previous %.2f W", cfg.Name, p.TotalW, prev)
		}
		prev = p.TotalW
	}
}

func TestSystemPowerIncludesDRAM(t *testing.T) {
	cfg := Config2GB()
	if got := SystemPowerW(cfg) - PowerModel(cfg).TotalW; math.Abs(got-params.OffChipDRAMPowerW) > 1e-9 {
		t.Errorf("system power DRAM share %.2f W, want %.2f W", got, params.OffChipDRAMPowerW)
	}
}

func TestChipLazyBlocks(t *testing.T) {
	ch, err := New(Config16GB())
	if err != nil {
		t.Fatal(err)
	}
	if ch.AllocatedBlocks() != 0 {
		t.Error("no blocks should be allocated up front")
	}
	b := ch.Block(100000)
	b.SetFloat(0, 0, 1.5)
	if ch.AllocatedBlocks() != 1 {
		t.Errorf("allocated %d blocks, want 1", ch.AllocatedBlocks())
	}
	if ch.Block(100000).GetFloat(0, 0) != 1.5 {
		t.Error("block identity not stable")
	}
}

func TestTileMapping(t *testing.T) {
	ch, err := New(Config2GB())
	if err != nil {
		t.Fatal(err)
	}
	if ch.TileOf(0) != 0 || ch.TileOf(255) != 0 || ch.TileOf(256) != 1 {
		t.Error("TileOf wrong")
	}
	if ch.LocalID(256) != 0 || ch.LocalID(511) != 255 {
		t.Error("LocalID wrong")
	}
	if ch.Topology(0).Leaves() != params.BlocksPerTile {
		t.Error("tile topology leaf count wrong")
	}
}

func TestChipBlockOutOfRangePanics(t *testing.T) {
	ch, _ := New(Config512MB())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range block access did not panic")
		}
	}()
	ch.Block(4096)
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := Config{Name: "x", CapacityBytes: 1000, Interconnect: HTree, Fanout: 4}
	if bad.Validate() == nil {
		t.Error("non-tile-aligned capacity should fail validation")
	}
	bad2 := Config2GB()
	bad2.Fanout = 1
	if bad2.Validate() == nil {
		t.Error("fanout 1 should fail validation")
	}
	if _, err := New(bad); err == nil {
		t.Error("New should propagate validation errors")
	}
}

func TestTotalBlockStats(t *testing.T) {
	ch, _ := New(Config512MB())
	ch.Block(0).ArithSel(xbar.OpAdd, 0, 10, 2, 0, 1)
	ch.Block(5).ArithSel(xbar.OpMul, 0, 20, 2, 0, 1)
	s := ch.TotalBlockStats()
	if s.AddOps != 10 || s.MulOps != 20 {
		t.Errorf("total stats %+v", s)
	}
}

func TestInterconnectKindString(t *testing.T) {
	if HTree.String() != "htree" || Bus.String() != "bus" {
		t.Error("kind strings wrong")
	}
}

// Concurrent first lookups of overlapping block ids resolve each id to a
// single block and run the materialization hook exactly once per block;
// until the first lookup the chip holds no block table at all.
func TestBlockConcurrentMaterialize(t *testing.T) {
	ch, err := New(Config2GB())
	if err != nil {
		t.Fatal(err)
	}
	hooked := make(map[int]int) // written by the hook, under the chip lock
	ch.SetBlockHook(func(b *xbar.Block) { hooked[b.ID]++ })
	if ch.blocks.Load() != nil || ch.AllocatedBlocks() != 0 {
		t.Fatal("block table made before the first Block call")
	}
	const workers, ids = 8, 96
	got := make([][ids]*xbar.Block, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := (i*7 + w*13) % ids // every worker visits every id, in its own order
				got[w][id] = ch.Block(id * 170)
			}
		}(w)
	}
	wg.Wait()
	for id := 0; id < ids; id++ {
		for w := 1; w < workers; w++ {
			if got[w][id] != got[0][id] {
				t.Fatalf("block %d resolved to two blocks", id*170)
			}
		}
		if got[0][id].ID != id*170 || hooked[id*170] != 1 {
			t.Errorf("block %d: ID %d, hook ran %d times", id*170, got[0][id].ID, hooked[id*170])
		}
	}
	if n := ch.AllocatedBlocks(); n != ids || len(hooked) != ids {
		t.Errorf("%d blocks materialized, %d hooked, want %d", n, len(hooked), ids)
	}
}
