// Package wbuf models the write buffer of a write-through memory system
// like the DECstation 3100's: stores enter a small FIFO that retires one
// entry per memory write time, and the CPU stalls only when the buffer is
// full. Write-buffer stalls are one of the five CPI components the
// paper's Monster measurements attribute (Tables 3 and 4).
package wbuf

import (
	"fmt"

	"onchip/internal/telemetry"
)

// Config describes a write buffer.
type Config struct {
	// Entries is the buffer depth. The DECstation 3100 used a 4-entry
	// buffer.
	Entries int
	// WriteCycles is the memory write time per entry, in CPU cycles.
	WriteCycles int
}

// DECstation3100 returns the write-buffer parameters used for
// validation runs: 4 entries, 5-cycle memory writes.
func DECstation3100() Config { return Config{Entries: 4, WriteCycles: 5} }

// Buffer simulates the write buffer. Time is supplied by the caller as
// an absolute cycle count that must be non-decreasing across calls.
type Buffer struct {
	cfg Config
	// retire[i] is the cycle at which queued entry i leaves the buffer.
	retire []uint64
	stalls uint64
	writes uint64
	peak   int // most entries ever queued after a store

	// Telemetry, set by Describe (nil no-ops otherwise) and published by
	// FlushMetrics: occupancy tallies the queue depth seen by each
	// arriving store, retireDelay the cycles from enqueue to retirement.
	occupancy   *telemetry.Tally
	retireDelay *telemetry.Tally
	depth       *telemetry.Gauge
}

// New returns a Buffer for cfg; it panics on non-positive parameters.
// Callers holding untrusted configurations should use NewE instead.
func New(cfg Config) *Buffer {
	b, err := NewE(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// NewE returns a Buffer for cfg, returning an error on non-positive
// parameters instead of panicking.
func NewE(cfg Config) (*Buffer, error) {
	if cfg.Entries <= 0 || cfg.WriteCycles <= 0 {
		return nil, fmt.Errorf("wbuf: entries (%d) and write cycles (%d) must be positive",
			cfg.Entries, cfg.WriteCycles)
	}
	return &Buffer{cfg: cfg, retire: make([]uint64, 0, cfg.Entries)}, nil
}

// Write enqueues one store issued at cycle now and returns the number of
// cycles the CPU stalls waiting for buffer space (zero when the buffer
// has a free entry).
func (b *Buffer) Write(now uint64) uint64 {
	b.writes++
	b.drain(now)
	b.occupancy.Observe(uint64(len(b.retire)))
	var stall uint64
	if len(b.retire) == b.cfg.Entries {
		// Full: wait for the oldest entry to retire.
		stall = b.retire[0] - now
		now = b.retire[0]
		b.drain(now)
	}
	// The memory port is serial: a new write starts after the previous
	// one finishes, never before `now`.
	start := now
	if n := len(b.retire); n > 0 && b.retire[n-1] > start {
		start = b.retire[n-1]
	}
	retireAt := start + uint64(b.cfg.WriteCycles)
	b.retire = append(b.retire, retireAt)
	b.peak = max(b.peak, len(b.retire))
	b.retireDelay.Observe(retireAt - now)
	b.stalls += stall
	return stall
}

// Describe registers the buffer's telemetry under prefix (e.g.
// "machine.wbuf"): occupancy and retire-delay histograms, a gauge of
// the entries queued after each store, and the buffer's counters. Safe
// to call with a nil registry.
func (b *Buffer) Describe(reg *telemetry.Registry, prefix string) {
	b.occupancy = reg.Tally(prefix+".occupancy", "queue depth seen by arriving stores")
	b.retireDelay = reg.Tally(prefix+".retire_delay_cycles", "cycles from enqueue to retirement")
	b.depth = reg.Gauge(prefix+".depth", "write-buffer entries queued after each store")
	reg.CounterFunc(prefix+".writes", "stores buffered", func() uint64 { return b.writes })
	reg.CounterFunc(prefix+".stall_cycles", "full-buffer stall cycles", func() uint64 { return b.stalls })
}

// FlushMetrics publishes the histograms and the depth gauge Describe
// registered, once the run is over. The gauge ends as if it had been
// set after every store: its maximum is the peak depth, its last value
// the depth now -- the depth after the last store, unless Pending has
// drained the buffer since. Calling it again adds nothing; it is a
// no-op without Describe.
func (b *Buffer) FlushMetrics() {
	b.occupancy.Publish()
	b.retireDelay.Publish()
	if b.writes > 0 {
		b.depth.Set(float64(b.peak)) // raises the gauge's maximum
		b.depth.Set(float64(len(b.retire)))
	}
}

// drain removes entries that have retired by cycle now.
func (b *Buffer) drain(now uint64) {
	i := 0
	for i < len(b.retire) && b.retire[i] <= now {
		i++
	}
	if i > 0 {
		b.retire = b.retire[:copy(b.retire, b.retire[i:])]
	}
}

// Pending returns the number of entries still queued at cycle now.
func (b *Buffer) Pending(now uint64) int {
	b.drain(now)
	return len(b.retire)
}

// StallCycles returns total CPU stall cycles charged so far.
func (b *Buffer) StallCycles() uint64 { return b.stalls }

// Writes returns the number of stores buffered so far.
func (b *Buffer) Writes() uint64 { return b.writes }

// Reset clears the buffer and counters.
func (b *Buffer) Reset() {
	b.retire = b.retire[:0]
	b.stalls = 0
	b.writes = 0
	b.peak = 0
}
