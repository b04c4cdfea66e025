// Package telemetry is the reproduction's observability layer: typed
// counters, gauges and log2-bucketed histograms collected in a Registry,
// a bounded event ring (Tracer) that mirrors Monster's logic-analyzer
// capture window, and a sink that emits a run manifest plus final
// metrics as JSONL. Every metric carries the Class declared at its
// registration -- result, arrangement or wall clock -- which is what
// the determinism gates read.
//
// The package is designed so instrumented code pays ~zero cost when
// telemetry is off: every instrument is nil-safe (methods on a nil
// *Counter, *Gauge, *Histogram or *Tracer are no-ops), and a nil
// *Registry hands out nil instruments. Hot paths therefore thread probes
// unconditionally and the disabled path reduces to an inlined nil check.
//
// Instruments use atomic updates, so a single instrument may be shared
// across goroutines (the design-space sweep runs workloads
// concurrently, and the advisor's /obs/metrics snapshots its registry
// while requests are counting). Histogram snapshots taken mid-run are
// per-word consistent rather than globally consistent: each bucket,
// count and sum is read atomically, but a concurrent Observe may land
// between reads. A simulator that observes per event uses a Tally
// instead: a plain single-owner histogram it publishes once, at the end
// of its run.
//
// Registry.Absorb and Tracer.Absorb fold a finished run's private
// instruments into another's, leaving them exactly as if the run had
// recorded there; the timing-machine row runner (package monitor)
// measures its rows concurrently that way.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The nil *Counter is
// a valid no-op instrument.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	atomic.AddUint64(&c.v, n)
}

// Value returns the current count (zero for the nil instrument).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return atomic.LoadUint64(&c.v)
}

// Gauge is a last-value instrument that also tracks the maximum it has
// been set to. The nil *Gauge is a valid no-op instrument.
type Gauge struct {
	v   uint64 // float64 bits
	max uint64 // float64 bits
	set uint32 // 1 once Set or Add has been called, for Registry.Absorb
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint32(&g.set, 1)
	atomic.StoreUint64(&g.v, math.Float64bits(v))
	g.raiseMax(v)
}

// Add accumulates delta into the gauge (and its running maximum). It is
// what concurrent contributors use for additive quantities published as
// a gauge -- the advisor's in-flight job count, raised and lowered by
// its workers.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	atomic.StoreUint32(&g.set, 1)
	for {
		old := atomic.LoadUint64(&g.v)
		v := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(&g.v, old, math.Float64bits(v)) {
			g.raiseMax(v)
			return
		}
	}
}

// raiseMax lifts the running maximum to v if v exceeds it.
func (g *Gauge) raiseMax(v float64) {
	for {
		old := atomic.LoadUint64(&g.max)
		if math.Float64frombits(old) >= v || atomic.CompareAndSwapUint64(&g.max, old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.v))
}

// Max returns the largest value ever set.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.max))
}

// nHistBuckets covers bits.Len64 of any uint64: bucket i holds values v
// with bits.Len64(v) == i, i.e. bucket 0 is exactly 0, bucket i>0 is
// [2^(i-1), 2^i).
const nHistBuckets = 65

// Histogram accumulates a distribution in log2 buckets, coarse enough to
// need no configuration. The nil *Histogram is a valid no-op instrument.
// Updates are atomic, so a histogram may be observed by one goroutine
// while another snapshots it.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets [nHistBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	atomic.AddUint64(&h.count, 1)
	atomic.AddUint64(&h.sum, v)
	atomic.AddUint64(&h.buckets[bits.Len64(v)], 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.count)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.sum)
}

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	count := h.Count()
	if count == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// inclusive upper edge of the log2 bucket holding that rank.
func (h *Histogram) Quantile(q float64) uint64 {
	count := h.Count()
	if count == 0 {
		return 0
	}
	rank := uint64(q * float64(count-1))
	var seen uint64
	for i := range h.buckets {
		n := atomic.LoadUint64(&h.buckets[i])
		seen += n
		if n > 0 && seen > rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<63 - 1
}

// add folds count observations summing to sum, bucketed as buckets,
// into h: the one bucket-add routine behind Registry.Absorb and
// Tally.Publish.
func (h *Histogram) add(count, sum uint64, buckets *[nHistBuckets]uint64) {
	atomic.AddUint64(&h.count, count)
	atomic.AddUint64(&h.sum, sum)
	for b, n := range buckets {
		if n != 0 {
			atomic.AddUint64(&h.buckets[b], n)
		}
	}
}

// Tally is a plain, single-owner log2 histogram: a simulator observes
// into it per event, with no atomic traffic, and publishes it into the
// registry Histogram it was made for (Registry.Tally) when the run is
// over. The nil *Tally is a valid no-op. It is not safe for concurrent
// use.
type Tally struct {
	h       *Histogram
	count   uint64
	sum     uint64
	buckets [nHistBuckets]uint64
}

// Observe records one value.
func (t *Tally) Observe(v uint64) {
	if t == nil {
		return
	}
	t.count++
	t.sum += v
	t.buckets[bits.Len64(v)]++
}

// Publish adds everything observed since the last Publish into the
// tally's histogram and clears the tally, so publishing again adds
// nothing until more is observed.
func (t *Tally) Publish() {
	if t == nil {
		return
	}
	t.h.add(t.count, t.sum, &t.buckets)
	h := t.h
	*t = Tally{h: h}
}

// Bucket is one non-empty log2 bucket of a histogram snapshot: Count
// observations in [Lo, Hi].
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i := range h.buckets {
		n := atomic.LoadUint64(&h.buckets[i])
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = 1 << uint(i-1)
			b.Hi = 1<<uint(i) - 1
		}
		out = append(out, b)
	}
	return out
}

// Class says what a metric measures, and so which gates may compare
// it. It is declared where the metric is registered (Registry.In) and
// travels with every snapshot into run files and -metrics output, so
// the determinism gates read it instead of guessing from names.
type Class uint8

const (
	// Result is a deterministic function of the run's inputs: miss
	// counts, CPI, search tallies. It is the zero value, and every
	// determinism gate compares it.
	Result Class = iota
	// Arrangement describes how a run was executed rather than what it
	// computed: pool width, trace-cache and advisor traffic. No gate
	// compares it.
	Arrangement
	// WallClock is elapsed time: span durations, request latency. No
	// gate compares it; host-time trends are the repository benchmark's
	// job.
	WallClock
)

var classNames = [...]string{Result: "result", Arrangement: "arrangement", WallClock: "wallclock"}

// String returns the class name written in run files and -metrics
// output.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass is the inverse of String; unknown names are an error.
func ParseClass(s string) (Class, error) {
	for c, name := range classNames {
		if name == s {
			return Class(c), nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown metric class %q", s)
}

// MarshalText encodes the class by name.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a class name, rejecting unknown ones.
func (c *Class) UnmarshalText(b []byte) error {
	v, err := ParseClass(string(b))
	*c = v
	return err
}

// Metric is a point-in-time snapshot of one instrument, shaped for
// encoding/json.
type Metric struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`            // "counter", "gauge" or "histogram"
	Class   Class    `json:"class,omitempty"` // omitted for Result
	Help    string   `json:"help,omitempty"`
	Value   float64  `json:"value"`
	Max     float64  `json:"max,omitempty"`     // gauges
	Count   uint64   `json:"count,omitempty"`   // histograms
	Sum     uint64   `json:"sum,omitempty"`     // histograms
	Buckets []Bucket `json:"buckets,omitempty"` // histograms
}

// Registry collects instruments by name. The nil *Registry is valid and
// hands out nil (no-op) instruments, so code can register probes
// unconditionally. Instruments are get-or-create: asking twice for the
// same name, type and class returns the same instrument, so repeated
// runs accumulate. The registry's own methods register Result metrics;
// In hands out the registration scope of the other classes.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// entry is one registered name: its kind, class and help, and the
// instrument behind it -- a *Counter, *Gauge or *Histogram, or, for a
// pull-style metric, the callbacks summed at snapshot time (so several
// owners, one simulator per workload say, can publish under one name).
type entry struct {
	typ   string // "counter", "gauge", "histogram", "func counter" or "func gauge"
	class Class
	help  string
	inst  any
	fns   []func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Scope registers instruments of one class into a registry. A scope of
// the nil registry hands out nil instruments.
type Scope struct {
	r     *Registry
	class Class
}

// In returns the scope registering into r under class c. Registering a
// name under two classes panics, like registering it as two types.
func (r *Registry) In(c Class) Scope { return Scope{r, c} }

// Counter returns the Result counter registered under name, creating
// it if needed. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter { return r.In(Result).Counter(name, help) }

// Gauge returns the Result gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge { return r.In(Result).Gauge(name, help) }

// Histogram returns the Result histogram registered under name.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.In(Result).Histogram(name, help)
}

// Tally returns a new single-owner tally that publishes into the Result
// histogram registered under name. A nil registry returns a nil (no-op)
// tally.
func (r *Registry) Tally(name, help string) *Tally {
	h := r.Histogram(name, help)
	if h == nil {
		return nil
	}
	return &Tally{h: h}
}

// CounterFunc registers a pull-style Result counter evaluated at
// snapshot time. Registering several functions under one name sums
// them, which lets every simulator in a sweep publish its existing
// Stats under one series. Safe to call on a nil registry.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.In(Result).CounterFunc(name, help, f)
}

// GaugeFunc registers a pull-style Result gauge evaluated (and summed)
// at snapshot time. Safe to call on a nil registry.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.In(Result).GaugeFunc(name, help, f)
}

// Counter returns the scope's counter registered under name.
func (s Scope) Counter(name, help string) *Counter {
	return register[Counter](s, name, "counter", help)
}

// Gauge returns the scope's gauge registered under name.
func (s Scope) Gauge(name, help string) *Gauge { return register[Gauge](s, name, "gauge", help) }

// Histogram returns the scope's histogram registered under name.
func (s Scope) Histogram(name, help string) *Histogram {
	return register[Histogram](s, name, "histogram", help)
}

// CounterFunc registers a pull-style counter of the scope's class.
func (s Scope) CounterFunc(name, help string, f func() uint64) {
	s.addFunc(name, "func counter", help, func() float64 { return float64(f()) })
}

// GaugeFunc registers a pull-style gauge of the scope's class.
func (s Scope) GaugeFunc(name, help string, f func() float64) {
	s.addFunc(name, "func gauge", help, f)
}

func register[T any](s Scope, name, typ, help string) *T {
	if s.r == nil {
		return nil
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return instrument[T](s.r.entry(name, typ, s.class, help))
}

// instrument returns e's instrument, creating it on first use. Callers
// hold the registry's lock.
func instrument[T any](e *entry) *T {
	if e.inst == nil {
		e.inst = new(T)
	}
	return e.inst.(*T)
}

func (s Scope) addFunc(name, typ, help string, f func() float64) {
	if s.r == nil {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	e := s.r.entry(name, typ, s.class, help)
	e.fns = append(e.fns, f)
}

// entry returns name's entry, creating it if needed, and panics if name
// is already registered with a different type or class. Callers hold
// r.mu.
func (r *Registry) entry(name, typ string, class Class, help string) *entry {
	e, ok := r.entries[name]
	if !ok {
		if r.entries == nil {
			r.entries = make(map[string]*entry)
		}
		e = &entry{typ: typ, class: class, help: help}
		r.entries[name] = e
	}
	if e.typ != typ || e.class != class {
		panic(fmt.Sprintf("telemetry: %q registered as both %s %s and %s %s", name, e.class, e.typ, class, typ))
	}
	return e
}

// Absorb folds src into r, leaving r as if src's instruments had been
// registered and recorded into r directly, after what r already holds:
// counters and histograms add; a gauge src ever set takes src's last
// value and the larger of the two maxima, and one src never set only
// registers its name; pull-style callbacks are appended in src's
// registration order, so a snapshot sums them in the serial order. A
// name new to r keeps src's class and help; a name registered in both
// as different types or classes panics, like registering it twice.
// src must no longer be recording; r may be live. Safe to call with
// either registry nil.
func (r *Registry) Absorb(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	ents := make(map[string]entry, len(src.entries))
	for name, e := range src.entries {
		ents[name] = *e
	}
	src.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for name, se := range ents {
		e := r.entry(name, se.typ, se.class, se.help)
		e.fns = append(e.fns, se.fns...)
		switch in := se.inst.(type) {
		case *Counter:
			instrument[Counter](e).Add(in.Value())
		case *Gauge:
			g := instrument[Gauge](e)
			if atomic.LoadUint32(&in.set) != 0 {
				g.Set(in.Value())
				g.raiseMax(in.Max())
			}
		case *Histogram:
			instrument[Histogram](e).add(in.Count(), in.Sum(), &in.buckets)
		}
	}
}

// Snapshot returns all metrics sorted by name, for deterministic output.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Metric
	for name, e := range r.entries {
		m := Metric{Name: name, Type: e.typ, Class: e.class, Help: e.help}
		switch inst := e.inst.(type) {
		case *Counter:
			m.Value = float64(inst.Value())
		case *Gauge:
			m.Value, m.Max = inst.Value(), inst.Max()
		case *Histogram:
			m.Value, m.Count, m.Sum, m.Buckets = inst.Mean(), inst.Count(), inst.Sum(), inst.Buckets()
		default: // pull-style
			m.Type = strings.TrimPrefix(e.typ, "func ")
			for _, f := range e.fns {
				m.Value += f()
			}
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
