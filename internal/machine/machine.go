// Package machine models the timing of a single-issue MIPS R2000-class
// processor (the DECstation 3100 of the paper's measurements): one
// instruction per cycle plus stalls from the I-cache, D-cache,
// software-managed TLB and write buffer, the same five CPI components
// that the paper's Monster hardware monitor attributes (Tables 3 and 4).
//
// The machine consumes a trace.Ref stream (implementing trace.Sink), so
// it can be driven directly by the osmodel behavioral simulator or by a
// recorded trace file.
package machine

import (
	"fmt"

	"io"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/telemetry"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/vm"
	"onchip/internal/wbuf"
)

// ClockHz is the DECstation 3100 clock rate (16.67 MHz), used to convert
// cycle counts to seconds.
const ClockHz = 16.67e6

// Component indexes the CPI stall categories.
type Component uint8

const (
	// CompTLB is TLB miss handling time.
	CompTLB Component = iota
	// CompICache is instruction-cache refill time.
	CompICache
	// CompDCache is data-cache refill time (loads; stores are
	// write-through and absorbed by the write buffer).
	CompDCache
	// CompWB is write-buffer-full stall time.
	CompWB
	// CompOther is non-memory stall time (integer and floating-point
	// interlocks), modeled as a per-instruction density supplied by the
	// workload.
	CompOther
	nComponents
)

func (c Component) String() string {
	names := [...]string{"TLB", "I-cache", "D-cache", "Write Buffer", "Other"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// Config assembles a machine.
type Config struct {
	ICache cache.Config
	DCache cache.Config
	TLB    tlb.Config
	// TLBCosts defaults to tlb.DefaultCosts() when left zero.
	TLBCosts tlb.CostModel
	WB       wbuf.Config
	// OtherCPI is the interlock stall density charged per user-mode
	// application instruction (server and kernel instructions are
	// integer-dominated and charged none).
	OtherCPI float64
	// IsServerASID identifies user-level OS server address spaces
	// (excluded from OtherCPI). Nil means no servers.
	IsServerASID func(asid uint8) bool
	// UncachedLoadCycles is the penalty of a load from the uncached
	// kseg1 segment. Zero selects 6.
	UncachedLoadCycles int
	// Unified selects a single cache for instructions and data (the
	// i486/PowerPC 601 style of Table 1): the ICache configuration
	// describes it and DCache is ignored. Instruction and data misses
	// are still attributed separately.
	Unified bool
	// L2, when non-nil, adds a unified second-level cache behind the
	// on-chip caches (the paper's section 5.4: "high-end systems will
	// provide more on-chip memory, but access times will probably
	// require that this be in a second-level cache"). Primary misses
	// that hit in the L2 pay L2HitCycles plus the line transfer instead
	// of the full memory penalty.
	L2 *cache.Config
	// L2HitCycles is the L2 access latency; zero selects 4.
	L2HitCycles int
	// IPrefetchNextLine enables sequential (next-line) prefetch into
	// the I-cache on a fetch miss -- the "pre-fetching units, streaming
	// buffers" of the paper's section 6, and the natural alternative to
	// the long cache lines Mach favors. The prefetched line fills in
	// the shadow of the demand miss and costs no extra stall.
	IPrefetchNextLine bool
	// Metrics, when non-nil, registers the machine's telemetry under
	// the "machine." prefix: pull-style stall, instruction and cycle
	// counters over the machine's own fields, per-stream miss-cost
	// histograms (published by FlushMetrics), and the cache/TLB/
	// write-buffer stats; none is meant to be read mid-run. Nil (the
	// default) costs the hot path nothing beyond inlined nil checks.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records every stall charge (reference kind,
	// address, component, cycles) into the bounded event ring -- the
	// reproduction of Monster's logic-analyzer capture window.
	Tracer *telemetry.Tracer
}

// Costs returns the effective TLB cost model.
func (c Config) Costs() tlb.CostModel {
	if c.TLBCosts == (tlb.CostModel{}) {
		return tlb.DefaultCosts()
	}
	return c.TLBCosts
}

// DECstation3100 returns the validation configuration of the paper's
// measurement platform: 64-KB direct-mapped off-chip I- and D-caches
// with one-word lines, a 64-entry fully-associative TLB, and a 4-entry
// write buffer.
func DECstation3100() Config {
	// With one-word lines, write allocation is free (a store writes the
	// whole line), and the 3100 allocates on writes.
	return Config{
		ICache: cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 64 << 10, LineWords: 1, Assoc: 1}},
		DCache: cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 64 << 10, LineWords: 1, Assoc: 1}, WriteAllocate: true},
		TLB:    tlb.R2000(),
		WB:     wbuf.DECstation3100(),
	}
}

// Machine is the timing simulator.
type Machine struct {
	cfg Config
	ic  *cache.Cache
	dc  *cache.Cache
	tlb *tlb.Managed
	wb  *wbuf.Buffer

	cycles uint64
	instrs uint64
	stalls [nComponents]uint64
	// otherStall accumulates fractional interlock cycles.
	otherStall float64

	uncachedLoad uint64
	l2           *cache.Cache
	l2Hit        uint64

	// Telemetry. All nil (no-op) unless Config.Metrics/Tracer are set.
	iMiss  *telemetry.Tally // per-miss fill cost, published by FlushMetrics
	dMiss  *telemetry.Tally
	tracer *telemetry.Tracer
	cur    trace.Ref // reference being simulated, for event attribution
}

// New assembles a machine; it panics on invalid component configs.
// Callers holding untrusted configurations (design-space sweeps, flag
// parsing) should use NewE and degrade gracefully instead.
func New(cfg Config) *Machine {
	m, err := NewE(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewE assembles a machine, returning an error on an invalid component
// configuration instead of panicking.
func NewE(cfg Config) (*Machine, error) {
	ic, err := cache.NewE(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("machine: I-cache: %w", err)
	}
	mtlb, err := tlb.NewManagedE(cfg.TLB, cfg.Costs())
	if err != nil {
		return nil, fmt.Errorf("machine: TLB: %w", err)
	}
	wb, err := wbuf.NewE(cfg.WB)
	if err != nil {
		return nil, fmt.Errorf("machine: write buffer: %w", err)
	}
	m := &Machine{
		cfg: cfg,
		ic:  ic,
		tlb: mtlb,
		wb:  wb,
	}
	if cfg.Unified {
		// One physical array serves both streams; miss penalties for
		// the data side use the same line length.
		m.dc = m.ic
		m.cfg.DCache = cfg.ICache
	} else {
		if m.dc, err = cache.NewE(cfg.DCache); err != nil {
			return nil, fmt.Errorf("machine: D-cache: %w", err)
		}
	}
	if cfg.L2 != nil {
		if m.l2, err = cache.NewE(*cfg.L2); err != nil {
			return nil, fmt.Errorf("machine: L2: %w", err)
		}
		if m.l2Hit = uint64(cfg.L2HitCycles); m.l2Hit == 0 {
			m.l2Hit = 4
		}
	}
	if m.uncachedLoad = uint64(cfg.UncachedLoadCycles); m.uncachedLoad == 0 {
		m.uncachedLoad = 6
	}
	m.tracer = cfg.Tracer
	if reg := cfg.Metrics; reg != nil {
		for c := CompTLB; c < CompOther; c++ {
			reg.CounterFunc("machine.stall_cycles."+c.slug(), "stall cycles charged to "+c.String(),
				func() uint64 { return m.stalls[c] })
		}
		// Other is a fractional per-instruction density, not whole
		// cycles, so it is a gauge.
		reg.GaugeFunc("machine.stall_cycles.other", "interlock stall cycles (fractional)",
			func() float64 { return m.otherStall })
		m.iMiss = reg.Tally("machine.icache.miss_cost_cycles", "per-miss fill cost, instruction stream")
		m.dMiss = reg.Tally("machine.dcache.miss_cost_cycles", "per-miss fill cost, data stream")
		m.ic.Describe(reg, "machine.icache")
		if !cfg.Unified {
			m.dc.Describe(reg, "machine.dcache")
		}
		if m.l2 != nil {
			m.l2.Describe(reg, "machine.l2")
		}
		m.tlb.Describe(reg, "machine.tlb")
		m.wb.Describe(reg, "machine.wbuf")
		reg.CounterFunc("machine.instructions", "instructions retired", func() uint64 { return m.instrs })
		reg.CounterFunc("machine.cycles", "machine cycles", func() uint64 { return m.cycles })
	}
	return m, nil
}

// slug returns the component's lower-case metric-name form.
func (c Component) slug() string {
	switch c {
	case CompTLB:
		return "tlb"
	case CompICache:
		return "icache"
	case CompDCache:
		return "dcache"
	case CompWB:
		return "wbuf"
	default:
		return "other"
	}
}

// charge books p stall cycles to component c: the clock advances, the
// component's tally grows, and the tracer, if any, records the event.
func (m *Machine) charge(c Component, p uint64) {
	m.cycles += p
	m.stalls[c] += p
	m.event(c, p)
}

// event records one stall charge into the tracer; a nil tracer makes
// this an inlined nil check.
func (m *Machine) event(c Component, cycles uint64) {
	if m.tracer == nil {
		return
	}
	m.tracer.Record(telemetry.Event{
		Kind:   uint8(m.cur.Kind),
		Addr:   m.cur.Addr,
		ASID:   m.cur.ASID,
		Comp:   uint8(c),
		Cycles: uint32(cycles),
	})
}

// KindName translates a telemetry.Event Kind code into the trace
// package's reference-kind name, for event dumps.
func KindName(k uint8) string { return trace.Kind(k).String() }

// CompName translates a telemetry.Event Comp code into the component's
// metric-slug name, for event dumps.
func CompName(c uint8) string { return Component(c).slug() }

// WriteTrace dumps a tracer's captured event window as JSONL with this
// package's component names and the trace package's reference kinds.
func WriteTrace(w io.Writer, t *telemetry.Tracer) error {
	return t.WriteJSONL(w, KindName, CompName)
}

// TLB exposes the managed TLB (for Tapeworm hookup).
func (m *Machine) TLB() *tlb.Managed { return m.tlb }

// ICache exposes the instruction cache simulator.
func (m *Machine) ICache() *cache.Cache { return m.ic }

// DCache exposes the data cache simulator.
func (m *Machine) DCache() *cache.Cache { return m.dc }

// Cycles returns total machine cycles (excluding the Other component,
// which is reporting-only and does not advance the clock).
func (m *Machine) Cycles() uint64 { return m.cycles }

// Instructions returns instructions retired.
func (m *Machine) Instructions() uint64 { return m.instrs }

// FlushMetrics publishes what the machine tallied privately during the
// run -- the miss-cost and write-buffer histograms and the write-buffer
// depth gauge -- into its registry; the counters are pull-style and
// need no flush. The run loops call it after the last reference; a
// second call adds nothing, and it is a no-op with metrics off.
func (m *Machine) FlushMetrics() {
	m.iMiss.Publish()
	m.dMiss.Publish()
	m.wb.FlushMetrics()
}

// Ref implements trace.Sink: simulate one reference.
func (m *Machine) Ref(r trace.Ref) {
	if m.tracer != nil {
		m.cur = r
	}
	// Address translation applies to every mapped reference.
	if stall := m.tlb.Translate(r.Addr, r.ASID); stall > 0 {
		m.charge(CompTLB, stall)
	}
	key := vm.CacheKey(r.Addr, r.ASID)
	switch r.Kind {
	case trace.IFetch:
		m.instrs++
		m.cycles++ // base CPI of 1
		if !m.ic.Access(key, false) {
			p := m.missCost(key, m.cfg.ICache.LineWords)
			m.charge(CompICache, p)
			m.iMiss.Observe(p)
			if m.cfg.IPrefetchNextLine {
				// Fill the next sequential line in the shadow of the
				// demand fill.
				next := key + uint64(m.cfg.ICache.LineWords*4)
				if !m.ic.Access(next, false) && m.l2 != nil {
					m.l2.Access(next, false)
				}
			}
		}
		if m.cfg.OtherCPI > 0 && r.Mode == trace.User &&
			(m.cfg.IsServerASID == nil || !m.cfg.IsServerASID(r.ASID)) {
			m.otherStall += m.cfg.OtherCPI
		}
	case trace.Load:
		if vm.SegmentOf(r.Addr) == vm.Kseg1 {
			// Uncached I/O-space load.
			m.charge(CompDCache, m.uncachedLoad)
			return
		}
		hit, writeback := m.dc.AccessWB(key, false)
		if !hit {
			p := m.missCost(key, m.cfg.DCache.LineWords)
			m.charge(CompDCache, p)
			m.dMiss.Observe(p)
		}
		if writeback {
			m.lineWriteback()
		}
	case trace.Store:
		if vm.SegmentOf(r.Addr) == vm.Kseg1 {
			// Uncached store: straight to the write buffer.
			m.wbWrite()
			return
		}
		hit, writeback := m.dc.AccessWB(key, true)
		if m.cfg.DCache.WriteBack {
			// Write-back: a store miss fetches the line
			// (fetch-on-write); memory traffic happens only on dirty
			// evictions.
			if !hit {
				p := m.missCost(key, m.cfg.DCache.LineWords)
				m.charge(CompDCache, p)
				m.dMiss.Observe(p)
			}
			if writeback {
				m.lineWriteback()
			}
			return
		}
		// Write-through: every store goes to memory via the buffer.
		m.wbWrite()
	}
}

// missCost returns the stall for a primary miss: the full memory
// penalty, or the L2 latency plus line transfer when a second-level
// cache holds the line.
func (m *Machine) missCost(key uint64, lineWords int) uint64 {
	if m.l2 == nil {
		return uint64(cache.MissPenalty(lineWords))
	}
	if m.l2.Access(key, false) {
		return m.l2Hit + uint64(lineWords-1)
	}
	return uint64(cache.MissPenalty(m.cfg.L2.LineWords)) + uint64(lineWords-1)
}

// L2Cache exposes the second-level cache simulator (nil when absent).
func (m *Machine) L2Cache() *cache.Cache { return m.l2 }

// wbWrite pushes one word at the write buffer, charging any full-buffer
// stall.
func (m *Machine) wbWrite() {
	if stall := m.wb.Write(m.cycles); stall > 0 {
		m.charge(CompWB, stall)
	}
}

// lineWriteback drains an evicted dirty line through the write buffer,
// one word per entry.
func (m *Machine) lineWriteback() {
	for w := 0; w < m.cfg.DCache.LineWords; w++ {
		m.wbWrite()
	}
}

// Breakdown is the Monster-style CPI decomposition: total CPI and the
// contribution of each stall category (Tables 3 and 4 of the paper).
type Breakdown struct {
	Instrs uint64
	CPI    float64
	Comp   [nComponents]float64
}

// Breakdown returns the current decomposition.
func (m *Machine) Breakdown() Breakdown {
	b := Breakdown{Instrs: m.instrs}
	if m.instrs == 0 {
		return b
	}
	n := float64(m.instrs)
	for c := CompTLB; c < CompOther; c++ {
		b.Comp[c] = float64(m.stalls[c]) / n
	}
	b.Comp[CompOther] = m.otherStall / n
	b.CPI = 1
	for _, v := range b.Comp {
		b.CPI += v
	}
	return b
}

// Pct returns component c's share of the CPI above 1.0, in percent.
func (b Breakdown) Pct(c Component) float64 {
	excess := b.CPI - 1
	if excess <= 0 {
		return 0
	}
	return 100 * b.Comp[c] / excess
}

// Seconds converts the stall cycles plus base cycles to seconds at the
// DECstation clock rate.
func (b Breakdown) Seconds() float64 {
	return b.CPI * float64(b.Instrs) / ClockHz
}

func (b Breakdown) String() string {
	return fmt.Sprintf("CPI %.2f  TLB %.2f (%.0f%%)  I$ %.2f (%.0f%%)  D$ %.2f (%.0f%%)  WB %.2f (%.0f%%)  Other %.2f (%.0f%%)",
		b.CPI,
		b.Comp[CompTLB], b.Pct(CompTLB),
		b.Comp[CompICache], b.Pct(CompICache),
		b.Comp[CompDCache], b.Pct(CompDCache),
		b.Comp[CompWB], b.Pct(CompWB),
		b.Comp[CompOther], b.Pct(CompOther))
}
