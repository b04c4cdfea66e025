// Package spans is the execution tracer of the reproduction: a
// low-overhead hierarchical span recorder that answers *where the
// wall-clock went* -- per phase, per workload, per pool worker --
// where the telemetry registry answers *what happened*. A Span brackets
// one unit of work (a generation phase, a search, one group-pool job);
// spans nest through per-goroutine Lanes, so the recorded tree maps
// directly onto the pipeline's concurrency structure.
//
// Like package telemetry, everything is nil-safe: a nil *Tracer hands
// out nil *Lanes, a nil *Lane hands out nil *Spans, and methods on nil
// receivers are no-ops, so instrumented code threads spans
// unconditionally and the disabled path reduces to an inlined nil
// check. With tracing off the simulators' output is byte-identical.
//
// Recorded spans export two ways: WriteChromeTrace renders the run as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing),
// and SetMetrics folds every span's duration into a wall-clock
// telemetry histogram so -metrics output carries them alongside the
// other metrics. That fold is the one wall-clock path of a run: no
// stage keeps its own timer.
package spans

import (
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"onchip/internal/telemetry"
)

// DefaultLimit bounds the completed-span buffer: enough for the full
// model-building sweep's per-job worker spans with room to spare, small
// enough (~16 MB of records) that an unbounded producer cannot exhaust
// memory. Spans past the limit are dropped and counted.
const DefaultLimit = 256 << 10

// Record is one completed span. Start and Dur are relative to the
// tracer's epoch, so records order and render without wall-clock
// arithmetic.
type Record struct {
	ID     uint64
	Parent uint64 // 0 for a lane's top-level spans
	Lane   int    // index into the tracer's lanes
	Name   string
	Start  time.Duration
	Dur    time.Duration
}

// Tracer collects spans across any number of lanes. The nil *Tracer is
// a valid no-op instrument. Start/End are safe for concurrent use
// across lanes; a single Lane belongs to one goroutine at a time (its
// open-span stack is unsynchronized by design).
type Tracer struct {
	epoch  time.Time
	limit  int
	nextID atomic.Uint64

	mu      sync.Mutex
	lanes   []*Lane
	byName  map[string]*Lane
	recs    []Record
	dropped uint64
	open    map[uint64]*Span
	metrics map[string]*telemetry.Histogram
	reg     *telemetry.Registry

	// CPU-profile bracketing (ProfileSpan): profState moves 0 -> 1 when
	// the named span starts the profile, 1 -> 2 when it stops.
	profName  string
	profOut   profileCloser
	profState atomic.Int32
}

// profileCloser is the sink a bracketed CPU profile is written to;
// *os.File satisfies it.
type profileCloser interface {
	Write(p []byte) (int, error)
	Close() error
}

// New returns a tracer holding up to limit completed spans; limit <= 0
// selects DefaultLimit.
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Tracer{
		epoch:  time.Now(),
		limit:  limit,
		byName: make(map[string]*Lane),
		open:   make(map[uint64]*Span),
	}
}

// SetMetrics folds every completed span into reg: the histogram
// "span.<name>_us" holds the per-span durations in microseconds, so its
// sum is the total time spent in that span name and its count the
// number of spans. The histograms register as telemetry.WallClock,
// which the compare/trend determinism gates skip. Safe to call on a nil
// tracer.
func (t *Tracer) SetMetrics(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	t.mu.Lock()
	t.reg = reg
	t.metrics = make(map[string]*telemetry.Histogram)
	t.mu.Unlock()
}

// ProfileSpan arms CPU-profile bracketing: the first span started with
// the given name starts a CPU profile into out, and that span's End
// stops the profile and closes out. Exactly one profile is captured per
// tracer. Safe to call on a nil tracer (the caller keeps ownership of
// out in that case).
func (t *Tracer) ProfileSpan(name string, out profileCloser) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.profName = name
	t.profOut = out
	t.mu.Unlock()
}

// StopProfile stops a CPU profile still running because its bracketing
// span never ended (an interrupted run); the shutdown drain calls it
// before the spans file is written. Safe on a nil tracer and when no
// profile was armed or it already stopped.
func (t *Tracer) StopProfile() {
	if t == nil {
		return
	}
	t.mu.Lock()
	out := t.profOut
	t.mu.Unlock()
	if t.profState.CompareAndSwap(1, 2) {
		pprof.StopCPUProfile()
		out.Close()
	} else if out != nil && t.profState.CompareAndSwap(0, 2) {
		// Armed but the named span never ran: release the sink so the
		// owner can clean up the empty file.
		out.Close()
	}
}

// Lane returns the lane registered under name, creating it if needed.
// A lane is a virtual thread in the recorded trace: spans started on it
// nest through its open-span stack, so it must be used by one goroutine
// at a time. A nil tracer returns a nil (no-op) lane.
func (t *Tracer) Lane(name string) *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.byName[name]; ok {
		return l
	}
	l := &Lane{t: t, id: len(t.lanes), name: name}
	t.lanes = append(t.lanes, l)
	t.byName[name] = l
	return l
}

// Dropped returns how many completed spans the bounded buffer has
// discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Records returns a copy of the completed spans recorded so far, in
// completion order.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Record(nil), t.recs...)
}

// Lane is one virtual thread of the trace. The nil *Lane is a valid
// no-op instrument. A lane's spans must start and end on one goroutine
// at a time (the per-lane stack that gives spans their parents is
// unsynchronized); distinct lanes are independent and concurrent.
type Lane struct {
	t     *Tracer
	id    int
	name  string
	stack []uint64 // open span ids, innermost last (owner goroutine only)
}

// Name returns the lane's registered name ("" for the nil lane).
func (l *Lane) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Span is one bracketed unit of work, created by Lane.Start and closed
// by End. The nil *Span is a valid no-op.
type Span struct {
	lane    *Lane
	id      uint64
	parent  uint64
	name    string
	start   time.Duration
	profOut profileCloser // non-nil while this span brackets the CPU profile
}

// Start opens a span on the lane. The span's parent is the lane's
// innermost open span, so sequential Start/End pairs on one lane record
// a tree. Returns nil (a no-op span) on the nil lane.
func (l *Lane) Start(name string) *Span {
	if l == nil {
		return nil
	}
	t := l.t
	s := &Span{
		lane:  l,
		id:    t.nextID.Add(1),
		name:  name,
		start: time.Since(t.epoch),
	}
	if n := len(l.stack); n > 0 {
		s.parent = l.stack[n-1]
	}
	l.stack = append(l.stack, s.id)

	t.mu.Lock()
	t.open[s.id] = s
	// CPU-profile bracketing: the first span carrying the armed name
	// starts the profile; its End stops it.
	if t.profName == name && t.profState.CompareAndSwap(0, 1) {
		if err := pprof.StartCPUProfile(t.profOut); err != nil {
			// Another profiler is running; give the bracket up.
			t.profState.Store(2)
			t.profOut.Close()
		} else {
			s.profOut = t.profOut
		}
	}
	t.mu.Unlock()
	return s
}

// End closes the span, recording it and folding its duration into the
// tracer's telemetry histogram when SetMetrics configured one. Ends
// must pair with Starts LIFO per lane. Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	l := s.lane
	t := l.t
	dur := time.Since(t.epoch) - s.start

	if s.profOut != nil && t.profState.CompareAndSwap(1, 2) {
		pprof.StopCPUProfile()
		s.profOut.Close()
	}

	// Pop the lane stack (tolerating a missed End below us rather than
	// corrupting later parentage).
	for n := len(l.stack); n > 0; n-- {
		if l.stack[n-1] == s.id {
			l.stack = l.stack[:n-1]
			break
		}
	}

	t.mu.Lock()
	delete(t.open, s.id)
	if len(t.recs) < t.limit {
		t.recs = append(t.recs, Record{
			ID: s.id, Parent: s.parent, Lane: l.id, Name: s.name,
			Start: s.start, Dur: dur,
		})
	} else {
		t.dropped++
	}
	var hist *telemetry.Histogram
	if t.reg != nil {
		var ok bool
		if hist, ok = t.metrics[s.name]; !ok {
			hist = t.reg.In(telemetry.WallClock).Histogram("span."+s.name+"_us",
				"per-span duration of "+s.name+" in microseconds (sum: total)")
			t.metrics[s.name] = hist
		}
	}
	t.mu.Unlock()

	// The histogram update is atomic; do it outside the tracer lock so
	// concurrent lanes do not serialize on the fold.
	hist.Observe(uint64(dur.Microseconds()))
}
