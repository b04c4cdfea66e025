package cheetah

import (
	"cmp"
	"fmt"
	"slices"

	"onchip/internal/area"
)

// Sweep measures miss counts for an arbitrary set of cache
// configurations in as few passes as single-pass all-associativity
// simulation allows: configurations sharing a (set count, line size)
// pair share one stack group sized to the widest of them, and the
// groups of one line size run as one fused LineSweep. The Table 5
// design space of 120 configurations (6 line sizes x 8 set counts)
// needs 48 groups in 6 LineSweeps instead of 120 simulators.
type Sweep struct {
	lines    []*LineSweep         // one per line size, ascending
	index    map[[2]int]groupSlot // key: {sets, lineWords}; lookup only
	groups   int
	accesses uint64
}

// groupSlot locates one (set count, line size) group.
type groupSlot struct {
	line  *LineSweep
	group int
}

// NewSweep builds a sweep covering every configuration. Every
// effective associativity (a fully-associative config's line count)
// must be at most maxAssoc; it panics on invalid configurations or
// ones beyond maxAssoc.
func NewSweep(configs []area.CacheConfig, maxAssoc int) *Sweep {
	specs := groupWays(configs)
	for _, g := range specs {
		if g.ways > maxAssoc {
			panic(fmt.Sprintf("cheetah: %d sets x %d words prices %d ways, beyond sweep associativity %d",
				g.sets, g.lineWords, g.ways, maxAssoc))
		}
	}
	s := &Sweep{index: make(map[[2]int]groupSlot), groups: len(specs)}
	for _, gs := range byLineSize(specs) {
		line := newLineSweep(gs)
		for i, g := range gs {
			s.index[[2]int{g.sets, g.lineWords}] = groupSlot{line: line, group: i}
		}
		s.lines = append(s.lines, line)
	}
	return s
}

// byLineSize splits the group specs by line size, in ascending line
// size, each line size's groups in ascending set count: the layout of
// both streams' per-line-size units.
func byLineSize(specs []groupSpec) [][]groupSpec {
	specs = slices.Clone(specs)
	slices.SortFunc(specs, func(a, b groupSpec) int {
		return cmp.Or(cmp.Compare(a.lineWords, b.lineWords), cmp.Compare(a.sets, b.sets))
	})
	var lines [][]groupSpec
	for i, g := range specs {
		if i == 0 || g.lineWords != specs[i-1].lineWords {
			lines = append(lines, nil)
		}
		lines[len(lines)-1] = append(lines[len(lines)-1], g)
	}
	return lines
}

// AccessKeys processes a batch of references for every line size, one
// LineSweep at a time so each fused loop stays tight over the shared
// batch.
func (s *Sweep) AccessKeys(keys []uint64) {
	s.accesses += uint64(len(keys))
	for _, l := range s.lines {
		l.AccessKeys(keys)
	}
}

// Reset empties every line size's stacks and zeroes the counters,
// keeping the storage for the next stream.
func (s *Sweep) Reset() {
	s.accesses = 0
	for _, l := range s.lines {
		l.reset()
	}
}

// Accesses returns the number of references processed.
func (s *Sweep) Accesses() uint64 { return s.accesses }

// Misses returns the exact LRU miss count for one of the swept
// configurations. It panics if the configuration was not covered by
// NewSweep.
func (s *Sweep) Misses(c area.CacheConfig) uint64 {
	slot, ok := s.index[[2]int{c.Sets(), c.LineWords}]
	if !ok {
		unswept(c)
	}
	return slot.line.misses(slot.group, effectiveAssoc(c))
}

// Simulators reports how many (set count, line size) stack groups the
// sweep runs (the pass-sharing the package exists for).
func (s *Sweep) Simulators() int { return s.groups }

// Lines hands out the fused per-line-size units for callers that
// parallelize across them (each LineSweep is independent and
// deterministic, so concurrent units give bit-identical results as long
// as every unit sees the full stream in order).
func (s *Sweep) Lines() []*LineSweep { return s.lines }
