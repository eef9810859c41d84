// Package chip assembles memory blocks and tiles into the four Wave-PIM
// chip configurations of the evaluation (512 MB, 2 GB, 8 GB, 16 GB) and
// implements the Table 3 power model. A chip is blocks grouped into
// 256-block (32 MB) tiles, each tile with its own H-tree or Bus
// interconnect, plus a central controller and an ARM host (Section 4.1,
// Section 7.1).
package chip

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wavepim/internal/params"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/xbar"
)

// InterconnectKind names the tile interconnect topology. It is a string
// so configs, JobSpecs, and CLI flags share one vocabulary — the set of
// valid names is intercon.Names(). The zero value selects the paper's
// default H-tree.
type InterconnectKind string

const (
	HTree     InterconnectKind = "htree"
	Bus       InterconnectKind = "bus"
	Mesh      InterconnectKind = "mesh"
	Torus     InterconnectKind = "torus"
	FlatFly   InterconnectKind = "flatfly"
	Dragonfly InterconnectKind = "dragonfly"
)

func (k InterconnectKind) String() string {
	if k == "" {
		return "htree"
	}
	return string(k)
}

// ParseInterconnect validates a wire/CLI topology name ("" means htree).
func ParseInterconnect(s string) (InterconnectKind, error) {
	if _, err := intercon.New(s, params.BlocksPerTile, intercon.Config{}); err != nil {
		return "", err
	}
	return InterconnectKind(s).normalize(), nil
}

func (k InterconnectKind) normalize() InterconnectKind {
	if k == "" {
		return HTree
	}
	return k
}

// Config describes one chip configuration.
type Config struct {
	Name          string
	CapacityBytes int64
	Interconnect  InterconnectKind
	Fanout        int // H-tree fanout (ignored for Bus)
}

// The four evaluation capacities (Table 2's "512MB, 2GB, 8GB, 16GB").
func Config512MB() Config {
	return Config{Name: "PIM-512MB", CapacityBytes: 512 << 20, Interconnect: HTree, Fanout: 4}
}
func Config2GB() Config {
	return Config{Name: "PIM-2GB", CapacityBytes: 2 << 30, Interconnect: HTree, Fanout: 4}
}
func Config8GB() Config {
	return Config{Name: "PIM-8GB", CapacityBytes: 8 << 30, Interconnect: HTree, Fanout: 4}
}
func Config16GB() Config {
	return Config{Name: "PIM-16GB", CapacityBytes: 16 << 30, Interconnect: HTree, Fanout: 4}
}

// AllConfigs returns the four evaluation configurations in ascending size.
func AllConfigs() []Config {
	return []Config{Config512MB(), Config2GB(), Config8GB(), Config16GB()}
}

// BlockBytes is the capacity of one 1 Mb block in bytes (128 KB).
const BlockBytes = params.BlockBits / 8

// NumBlocks is the total memory blocks on the chip.
func (c Config) NumBlocks() int { return int(c.CapacityBytes / BlockBytes) }

// NumTiles is the number of 256-block tiles.
func (c Config) NumTiles() int { return c.NumBlocks() / params.BlocksPerTile }

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	if c.CapacityBytes <= 0 || c.CapacityBytes%(int64(BlockBytes)*params.BlocksPerTile) != 0 {
		return fmt.Errorf("chip: capacity %d is not a whole number of 32MB tiles", c.CapacityBytes)
	}
	if k := c.Interconnect.normalize(); k == HTree && c.Fanout < 2 {
		return fmt.Errorf("chip: H-tree fanout %d < 2", c.Fanout)
	}
	if _, err := c.tileTopology(); err != nil {
		return err
	}
	return nil
}

// tileTopology builds one tile's interconnect from the configuration.
func (c Config) tileTopology() (intercon.Topology, error) {
	return intercon.New(string(c.Interconnect), params.BlocksPerTile, intercon.Config{Fanout: c.Fanout})
}

// ---------------------------------------------------------------------------
// Power model (Table 3)
// ---------------------------------------------------------------------------

// Power is the static power breakdown of a chip, mirroring Table 3's rows.
type Power struct {
	CrossbarArrayW float64 // one 1 Mb array
	SenseAmpW      float64 // per block
	DecoderW       float64 // per block
	MemoryBlockW   float64 // per block total
	TileMemoryW    float64 // 256 crossbar arrays
	TileSwitchW    float64 // interconnect switches of one tile
	TileW          float64 // tile total
	ControllerW    float64 // central controller
	HostW          float64 // CPU host
	TotalW         float64 // whole system
}

// PowerModel computes the Table 3 breakdown for a configuration. Table 3's
// "Tile Memory" row counts the 256 crossbar arrays (256 x 6.14 mW =
// 1.57 W); sense amps and decoders are reported per block but amortized
// into the same tile budget by the paper's rounding.
func PowerModel(c Config) Power {
	p := Power{
		CrossbarArrayW: params.PowerCrossbarArrayW,
		SenseAmpW:      params.PowerSenseAmpW,
		DecoderW:       params.PowerDecoderW,
		MemoryBlockW:   params.PowerMemoryBlockW,
		ControllerW:    params.PowerCentralCtrlW,
		HostW:          params.PowerCPUHostW,
	}
	p.TileMemoryW = params.PowerCrossbarArrayW * params.BlocksPerTile
	if topo, err := c.tileTopology(); err == nil {
		p.TileSwitchW = topo.LeakagePowerW()
	}
	p.TileW = p.TileMemoryW + p.TileSwitchW
	p.TotalW = float64(c.NumTiles())*p.TileW + p.ControllerW + p.HostW
	return p
}

// SystemPowerW returns the full platform power during a run: the chip's
// static power plus the 900 GB/s HBM2 off-chip memory (Section 7.1).
func SystemPowerW(c Config) float64 {
	return PowerModel(c).TotalW + params.OffChipDRAMPowerW
}

// ---------------------------------------------------------------------------
// Functional chip
// ---------------------------------------------------------------------------

// Chip is an instantiated (functional or timing) chip: lazily allocated
// blocks — a 16 GB chip has 131072 blocks, so cell arrays materialize only
// when touched — grouped into tiles that each own an interconnect. Block
// lookup is safe from concurrent goroutines (the sim engine's parallel
// functional execution resolves blocks from its worker pool) and lock-free
// once a block exists; the blocks themselves are single-owner and must not
// be mutated concurrently.
type Chip struct {
	Config Config
	mu     sync.RWMutex
	// blocks is the block table indexed by physical id, made on the first
	// Block call (timing-only chips never pay for it); mu is taken only to
	// make it and to materialize a block.
	blocks atomic.Pointer[[]atomic.Pointer[xbar.Block]]
	topos  []intercon.Topology // one per tile

	// remap is the logical->physical indirection installed by
	// spare-block remapping: after a block fails uncorrectably, its
	// logical id resolves to a reserved spare. hasRemap keeps the
	// common no-remap case a single atomic load on the hot addressing
	// paths (TileOf is called per routed transfer).
	remap    map[int]int
	hasRemap atomic.Bool

	// hook, when set, runs on every newly materialized block while the
	// chip lock is held (the fault layer uses it to attach per-block
	// fault state race-free).
	hook func(*xbar.Block)
}

// New instantiates a chip.
func New(c Config) (*Chip, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ch := &Chip{Config: c}
	// Topologies are stateless routing tables, so every tile shares one
	// instance (a 16 GB chip has 512 tiles of identical shape).
	topo, err := c.tileTopology()
	if err != nil {
		return nil, err
	}
	ch.topos = make([]intercon.Topology, c.NumTiles())
	for i := range ch.topos {
		ch.topos[i] = topo
	}
	return ch, nil
}

// Block returns the block a logical id resolves to (through any remap),
// allocating it on first use.
func (ch *Chip) Block(id int) *xbar.Block {
	if id < 0 || id >= ch.Config.NumBlocks() {
		panic(fmt.Sprintf("chip: block %d out of range [0,%d)", id, ch.Config.NumBlocks()))
	}
	id = ch.Physical(id)
	if t := ch.blocks.Load(); t != nil {
		if b := (*t)[id].Load(); b != nil {
			return b
		}
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	t := ch.blocks.Load()
	if t == nil {
		table := make([]atomic.Pointer[xbar.Block], ch.Config.NumBlocks())
		t = &table
		ch.blocks.Store(t)
	}
	if b := (*t)[id].Load(); b != nil {
		return b
	}
	b := xbar.New(id)
	if ch.hook != nil {
		ch.hook(b)
	}
	(*t)[id].Store(b)
	return b
}

// materialized calls f on every materialized block in ascending id order.
func (ch *Chip) materialized(f func(*xbar.Block)) {
	if t := ch.blocks.Load(); t != nil {
		for i := range *t {
			if b := (*t)[i].Load(); b != nil {
				f(b)
			}
		}
	}
}

// Physical resolves a logical block id through the remap table.
func (ch *Chip) Physical(id int) int {
	if !ch.hasRemap.Load() {
		return id
	}
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	if p, ok := ch.remap[id]; ok {
		return p
	}
	return id
}

// SetRemap redirects a logical block id to a physical spare. Subsequent
// Block/TileOf/LocalID calls on the logical id resolve to the spare.
func (ch *Chip) SetRemap(logical, physical int) {
	n := ch.Config.NumBlocks()
	if logical < 0 || logical >= n || physical < 0 || physical >= n {
		panic(fmt.Sprintf("chip: remap %d->%d out of range [0,%d)", logical, physical, n))
	}
	ch.mu.Lock()
	if ch.remap == nil {
		ch.remap = make(map[int]int)
	}
	ch.remap[logical] = physical
	ch.mu.Unlock()
	ch.hasRemap.Store(true)
}

// SetBlockHook installs a callback run on every newly materialized block
// (and immediately on already-materialized ones) under the chip lock.
func (ch *Chip) SetBlockHook(h func(*xbar.Block)) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.hook = h
	if h != nil {
		ch.materialized(h)
	}
}

// TileOf returns the tile index of a (logical) block.
func (ch *Chip) TileOf(blockID int) int { return ch.Physical(blockID) / params.BlocksPerTile }

// LocalID returns a block's index within its tile.
func (ch *Chip) LocalID(blockID int) int { return ch.Physical(blockID) % params.BlocksPerTile }

// Topology returns the interconnect of a tile.
func (ch *Chip) Topology(tile int) intercon.Topology { return ch.topos[tile] }

// TotalBlockStats sums the stats of all materialized blocks. Blocks are
// visited in ascending id order so the float accumulations (BusySec,
// EnergyJ) are reproducible run-to-run.
func (ch *Chip) TotalBlockStats() xbar.Stats {
	var s xbar.Stats
	ch.materialized(func(b *xbar.Block) { s.Add(b.Stats) })
	return s
}
