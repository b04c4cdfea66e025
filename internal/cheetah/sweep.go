package cheetah

import (
	"fmt"

	"onchip/internal/area"
)

// Sweep measures miss counts for an arbitrary set of cache
// configurations in as few passes as single-pass all-associativity
// simulation allows: configurations sharing a (set count, line size)
// pair share one AllAssoc simulator, so the Table 5 design space of 120
// configurations (6 line sizes x 8 set counts) needs 48 simulators
// instead of 120.
type Sweep struct {
	sims     map[[2]int]*AllAssoc // key: {sets, lineWords}; lookup only
	simList  []*AllAssoc          // dense iteration order for the hot path
	accesses uint64
}

// NewSweep builds a sweep covering every configuration. Configurations
// must be set-associative (the stack algorithm covers any associativity
// up to maxAssoc); it panics on invalid or fully-associative configs
// beyond maxAssoc.
func NewSweep(configs []area.CacheConfig, maxAssoc int) *Sweep {
	s := &Sweep{sims: make(map[[2]int]*AllAssoc)}
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			panic(err)
		}
		assoc := c.Assoc
		if assoc == area.FullyAssociative {
			assoc = c.Lines()
		}
		if assoc > maxAssoc {
			panic(fmt.Sprintf("cheetah: config %v exceeds sweep associativity %d", c, maxAssoc))
		}
		key := [2]int{c.Sets(), c.LineWords}
		if _, ok := s.sims[key]; !ok {
			sim := NewAllAssoc(c.Sets(), c.LineWords, maxAssoc)
			s.sims[key] = sim
			s.simList = append(s.simList, sim)
		}
	}
	return s
}

// Access processes one reference for every simulator. Iteration runs
// over a pre-built slice: ranging the map here would cost per
// reference and visit simulators in random order.
func (s *Sweep) Access(key uint64) {
	s.accesses++
	for _, sim := range s.simList {
		sim.Access(key)
	}
}

// AccessKeys processes a batch of references for every simulator, one
// simulator at a time so each inner loop stays tight over the shared
// batch.
func (s *Sweep) AccessKeys(keys []uint64) {
	s.accesses += uint64(len(keys))
	for _, sim := range s.simList {
		sim.AccessKeys(keys)
	}
}

// Accesses returns the number of references processed.
func (s *Sweep) Accesses() uint64 { return s.accesses }

// Misses returns the exact LRU miss count for one of the swept
// configurations. It panics if the configuration was not covered by
// NewSweep.
func (s *Sweep) Misses(c area.CacheConfig) uint64 {
	assoc := c.Assoc
	if assoc == area.FullyAssociative {
		assoc = c.Lines()
	}
	sim, ok := s.sims[[2]int{c.Sets(), c.LineWords}]
	if !ok {
		panic(fmt.Sprintf("cheetah: config %v was not swept", c))
	}
	return sim.Misses(assoc)
}

// Simulators reports how many distinct stack simulators the sweep runs
// (the pass-sharing the package exists for).
func (s *Sweep) Simulators() int { return len(s.simList) }

// Groups hands out the underlying simulators for callers that
// parallelize across them (each simulator is independent and
// deterministic, so concurrent groups give bit-identical results as
// long as every group sees the full stream in order).
func (s *Sweep) Groups() []*AllAssoc { return s.simList }
