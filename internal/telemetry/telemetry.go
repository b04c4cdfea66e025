// Package telemetry is the reproduction's observability layer: typed
// counters, gauges and log2-bucketed histograms collected in a Registry,
// a bounded event ring (Tracer) that mirrors Monster's logic-analyzer
// capture window, and sinks that emit a run manifest plus final metrics
// as JSONL or a human-readable table.
//
// The package is designed so instrumented code pays ~zero cost when
// telemetry is off: every instrument is nil-safe (methods on a nil
// *Counter, *Gauge, *Histogram or *Tracer are no-ops), and a nil
// *Registry hands out nil instruments. Hot paths therefore thread probes
// unconditionally and the disabled path reduces to an inlined nil check.
//
// Instruments use atomic updates, so a single instrument may be shared
// across goroutines (the design-space sweep runs workloads concurrently,
// and the live observability server snapshots the registry while
// simulators are still observing). Histogram snapshots taken mid-run are
// per-word consistent rather than globally consistent: each bucket,
// count and sum is read atomically, but a concurrent Observe may land
// between reads. The discrepancy is at most the few in-flight
// observations and vanishes at end of run.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The nil *Counter is
// a valid no-op instrument.
type Counter struct {
	v    uint64
	name string
	help string
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
	v    uint64 // float64 bits
	max  uint64 // float64 bits
	name string
	help string
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	bv := math.Float64bits(v)
	atomic.StoreUint64(&g.v, bv)
	for {
		old := atomic.LoadUint64(&g.max)
		if math.Float64frombits(old) >= v {
			return
		}
		if atomic.CompareAndSwapUint64(&g.max, old, bv) {
			return
		}
	}
}

// Add accumulates delta into the gauge (and its running maximum). It is
// what concurrent contributors use for additive quantities published as
// a gauge -- the per-stage wall-clock seconds of the sweep, summed
// across workload goroutines.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.v)
		v := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(&g.v, old, math.Float64bits(v)) {
			for {
				om := atomic.LoadUint64(&g.max)
				if math.Float64frombits(om) >= v ||
					atomic.CompareAndSwapUint64(&g.max, om, math.Float64bits(v)) {
					return
				}
			}
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

// Histogram accumulates a distribution in log2 buckets: cheap enough for
// per-miss observation, coarse enough to need no configuration. The nil
// *Histogram is a valid no-op instrument. Updates are atomic, so a
// histogram may be observed by one goroutine while another snapshots it.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets [nHistBuckets]uint64
	name    string
	help    string
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

// Metric is a point-in-time snapshot of one instrument, shaped for
// encoding/json.
type Metric struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"` // "counter", "gauge" or "histogram"
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
// same name and type returns the same instrument, so repeated runs
// accumulate.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]*funcMetric
}

// funcMetric is a pull-style metric: the callbacks are evaluated at
// snapshot time and summed, so several owners (one simulator per
// workload, say) can publish under one name.
type funcMetric struct {
	typ  string
	help string
	fns  []func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it if
// needed. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "counter")
	if c, ok := r.counters[name]; ok {
		return c
	}
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "gauge")
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "histogram")
	if h, ok := r.hists[name]; ok {
		return h
	}
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h := &Histogram{name: name, help: help}
	r.hists[name] = h
	return h
}

// CounterFunc registers a pull-style counter evaluated at snapshot time.
// Registering several functions under one name sums them, which lets
// every simulator in a sweep publish its existing Stats under one
// series. Safe to call on a nil registry.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.addFunc(name, "counter", help, func() float64 { return float64(f()) })
}

// GaugeFunc registers a pull-style gauge evaluated (and summed) at
// snapshot time. Safe to call on a nil registry.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.addFunc(name, "gauge", help, f)
}

func (r *Registry) addFunc(name, typ, help string, f func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkType(name, "func "+typ)
	if r.funcs == nil {
		r.funcs = make(map[string]*funcMetric)
	}
	fm, ok := r.funcs[name]
	if !ok {
		fm = &funcMetric{typ: typ, help: help}
		r.funcs[name] = fm
	} else if fm.typ != typ {
		panic(fmt.Sprintf("telemetry: %q registered as both %s and %s", name, fm.typ, typ))
	}
	fm.fns = append(fm.fns, f)
}

// checkType panics if name is already registered with a different
// instrument kind. Callers hold r.mu.
func (r *Registry) checkType(name, typ string) {
	have := ""
	if _, ok := r.counters[name]; ok {
		have = "counter"
	} else if _, ok := r.gauges[name]; ok {
		have = "gauge"
	} else if _, ok := r.hists[name]; ok {
		have = "histogram"
	} else if fm, ok := r.funcs[name]; ok {
		have = "func " + fm.typ
	}
	if have != "" && have != typ {
		panic(fmt.Sprintf("telemetry: %q registered as both %s and %s", name, have, typ))
	}
}

// Snapshot returns all metrics sorted by name, for deterministic output.
func (r *Registry) Snapshot() []Metric {
	return r.SnapshotAppend(nil)
}

// SnapshotAppend appends all metrics, sorted by name, to dst and
// returns the extended slice. Periodic samplers (the obs sampler
// feeding the tsdb write path) pass their previous slice truncated to
// zero length so a steady-state scrape allocates nothing beyond what
// the histogram bucket slices need.
func (r *Registry) SnapshotAppend(dst []Metric) []Metric {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := len(dst)
	out := dst
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Type: "counter", Help: c.help, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Help: g.help, Value: g.Value(), Max: g.Max()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{
			Name: name, Type: "histogram", Help: h.help,
			Value: h.Mean(), Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	for name, fm := range r.funcs {
		var sum float64
		for _, f := range fm.fns {
			sum += f()
		}
		out = append(out, Metric{Name: name, Type: fm.typ, Help: fm.help, Value: sum})
	}
	added := out[start:]
	sort.Slice(added, func(i, j int) bool { return added[i].Name < added[j].Name })
	return out
}
