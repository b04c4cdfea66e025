// Package cache implements a trace-driven set-associative cache
// simulator with true-LRU replacement, the equivalent of the cache2000
// and Cheetah tools used in the paper's trace-driven methodology.
//
// The simulator operates on 64-bit block-addressable keys (see
// vm.CacheKey), so it can model physically-distinct placement for
// distinct address spaces. It follows the DECstation 3100 memory-system
// style: write-through with no write-allocate by default, so store
// misses do not fill the cache (stores cost write-buffer time, which is
// modeled separately in package wbuf), while load and fetch misses fill a
// whole line. Write-allocate can be enabled per configuration.
package cache

import (
	"fmt"

	"onchip/internal/area"
	"onchip/internal/telemetry"
)

// Config describes the cache to simulate. It embeds the area model's
// geometry description so a single value can be both priced and
// simulated.
type Config struct {
	area.CacheConfig
	// WriteAllocate selects whether store misses allocate a line.
	WriteAllocate bool
	// WriteBack selects a write-back policy: stores allocate and dirty
	// their line instead of writing through, and evicting a dirty line
	// produces a writeback. WriteBack implies WriteAllocate. The
	// DECstation and the paper's design space are write-through; this
	// is the write-policy axis the paper's kernel-based simulator could
	// not explore ("our kernel-based cache simulator design restricts
	// selection of line sizes and write policies", section 3).
	WriteBack bool
}

// Stats holds simulation counters.
type Stats struct {
	Reads       uint64 // loads + instruction fetches
	ReadMisses  uint64
	Writes      uint64
	WriteMisses uint64 // store misses (no line fill unless WriteAllocate)
	Fills       uint64 // line fills performed
	Writebacks  uint64 // dirty lines evicted (write-back policy only)
	Compulsory  uint64 // read misses to never-before-seen blocks
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses (read + write).
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRatio returns misses/accesses, the figure the paper plots.
func (s Stats) MissRatio() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses()) / float64(a)
	}
	return 0
}

// ReadMissRatio returns read misses per read access.
func (s Stats) ReadMissRatio() float64 {
	if s.Reads > 0 {
		return float64(s.ReadMisses) / float64(s.Reads)
	}
	return 0
}

func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d misses=%d ratio=%.4f", s.Accesses(), s.Misses(), s.MissRatio())
}

// Cache is a set-associative LRU cache simulator.
type Cache struct {
	cfg        Config
	offsetBits uint
	setMask    uint64
	assoc      int
	// sets is laid out as sets[set*assoc : (set+1)*assoc], most recently
	// used first. Each entry packs (block+1)<<1 | dirty, so zero marks
	// an empty way and recency moves carry the dirty bit along.
	sets  []uint64
	stats Stats
	// seen holds every block that has taken a read miss, for
	// compulsory-miss classification, 64 blocks per entry: block b is
	// in it when bit b&63 of seen[b>>6] is set.
	seen map[uint64]uint64
}

// New builds a simulator for cfg. It panics on an invalid configuration;
// callers holding untrusted configurations (design-space sweeps, flag
// parsing) should use NewE and degrade gracefully instead.
func New(cfg Config) *Cache {
	c, err := NewE(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewE builds a simulator for cfg, returning an error on an invalid
// configuration instead of panicking.
func NewE(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cache: invalid config %v: %w", cfg.CacheConfig, err)
	}
	if cfg.Assoc == area.FullyAssociative {
		// Simulate full associativity as a single set spanning all lines.
		cfg.Assoc = cfg.Lines()
	}
	sets := cfg.Lines() / cfg.Assoc
	return &Cache{
		cfg:        cfg,
		offsetBits: uint(log2(cfg.LineWords * area.WordBytes)),
		setMask:    uint64(sets - 1),
		assoc:      cfg.Assoc,
		sets:       make([]uint64, cfg.Lines()),
		seen:       make(map[uint64]uint64),
	}, nil
}

// Config returns the simulated configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears cache contents and counters.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = 0
	}
	c.stats = Stats{}
	clear(c.seen)
}

// ResetStats clears counters but keeps cache contents; used after warmup
// to remove cold-start bias.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access simulates one access to the byte address key (see vm.CacheKey)
// and reports whether it hit. For write-back caches, use AccessWB when
// the caller needs to know about dirty evictions.
func (c *Cache) Access(key uint64, write bool) bool {
	hit, _ := c.AccessWB(key, write)
	return hit
}

// AccessWB simulates one access and additionally reports whether the
// access evicted a dirty line (write-back policy only; always false for
// write-through configurations).
func (c *Cache) AccessWB(key uint64, write bool) (hit, writeback bool) {
	block := key >> c.offsetBits
	set := int(block & c.setMask)
	tag := (block + 1) << 1 // 0 marks an empty way; low bit is dirty
	ways := c.sets[set*c.assoc : (set+1)*c.assoc]

	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	for i, w := range ways {
		if w&^1 == tag {
			// Hit: move to MRU position, dirtying on write-back
			// stores.
			e := w
			if write && c.cfg.WriteBack {
				e |= 1
			}
			copy(ways[1:i+1], ways[:i])
			ways[0] = e
			return true, false
		}
	}

	// Miss.
	if write {
		c.stats.WriteMisses++
		if !c.cfg.WriteAllocate && !c.cfg.WriteBack {
			return false, false
		}
	} else {
		c.stats.ReadMisses++
		if w, bit := c.seen[block>>6], uint64(1)<<(block&63); w&bit == 0 {
			c.seen[block>>6] = w | bit
			c.stats.Compulsory++
		}
	}
	c.stats.Fills++
	victim := ways[len(ways)-1]
	if victim&1 != 0 {
		c.stats.Writebacks++
		writeback = true
	}
	e := tag
	if write && c.cfg.WriteBack {
		e |= 1
	}
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = e
	return false, writeback
}

// Describe publishes the cache's counters with the registry under
// prefix (e.g. "machine.icache"). The metrics are pull-style: they read
// the Stats the simulator already keeps, so the access hot path is
// untouched and several caches (one per concurrent sweep, say) can
// publish under one prefix and have their counts summed at snapshot
// time. Safe to call with a nil registry.
func (c *Cache) Describe(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+".reads", "load + fetch accesses", func() uint64 { return c.stats.Reads })
	reg.CounterFunc(prefix+".read_misses", "load + fetch misses", func() uint64 { return c.stats.ReadMisses })
	reg.CounterFunc(prefix+".writes", "store accesses", func() uint64 { return c.stats.Writes })
	reg.CounterFunc(prefix+".write_misses", "store misses", func() uint64 { return c.stats.WriteMisses })
	reg.CounterFunc(prefix+".fills", "line fills performed", func() uint64 { return c.stats.Fills })
	reg.CounterFunc(prefix+".writebacks", "dirty lines evicted", func() uint64 { return c.stats.Writebacks })
	reg.CounterFunc(prefix+".compulsory", "read misses to never-seen blocks", func() uint64 { return c.stats.Compulsory })
}

// MissPenalty is the paper's on-chip miss cost model: "6 cycles for the
// first word in a line and 1 cycle for each additional word".
func MissPenalty(lineWords int) int { return 6 + (lineWords - 1) }

// CPIContribution converts a fill count into cycles-per-instruction
// stall contribution given the instruction count, using MissPenalty.
// Only fills stall the machine (write-through store misses without
// allocation are absorbed by the write buffer).
func CPIContribution(fills uint64, lineWords int, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(fills) * float64(MissPenalty(lineWords)) / float64(instructions)
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
