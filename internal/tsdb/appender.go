package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onchip/internal/spans"
	"onchip/internal/telemetry"
)

// monoClock converts sample instants to run-relative monotonic unix
// milliseconds: the first instant pins the wall clock, every later one
// advances by the *monotonic* difference from it, and the result never
// decreases. Wall-clock steps (NTP slew, manual adjustment) therefore
// cannot produce out-of-order timestamps within a run. The zero
// monoClock is ready to use; it is not safe for concurrent use (the
// Appender keeps it behind its lock).
type monoClock struct {
	started bool
	base    time.Time // first instant, with monotonic reading when the caller's had one
	baseMs  int64     // wall unix ms of base
	last    int64     // last emitted ms (clamp floor)
}

// UnixMs returns the run-relative monotonic timestamp for now.
func (c *monoClock) UnixMs(now time.Time) int64 {
	if !c.started {
		c.started = true
		c.base = now
		c.baseMs = now.UnixMilli()
		c.last = c.baseMs
		return c.baseMs
	}
	ms := c.baseMs + now.Sub(c.base).Milliseconds()
	if ms < c.last {
		ms = c.last
	}
	c.last = ms
	return ms
}

// Options tune an Appender; the zero value selects the defaults.
type Options struct {
	// FlushEvery is the batching interval of the background flusher:
	// buffered samples are encoded and appended to the shard files this
	// often. 0 selects 2 s; negative disables the background flusher
	// (the owner calls Flush/Close itself -- tests do).
	FlushEvery time.Duration
	// BufferLimit bounds the samples held between flushes; appends
	// beyond it are dropped and counted rather than growing without
	// bound when the disk stalls. 0 selects 65536.
	BufferLimit int
	// SegmentBytes is the size past which a shard's active segment is
	// synced, closed and rotated to a fresh numbered file. 0 selects
	// 1 MiB.
	SegmentBytes int64
}

func (o *Options) setDefaults() {
	if o.FlushEvery == 0 {
		o.FlushEvery = 2 * time.Second
	}
	if o.BufferLimit <= 0 {
		o.BufferLimit = 65536
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
}

// sample is one buffered (metric, instant, value) observation.
type sample struct {
	ms    int64
	name  string
	kind  string
	class telemetry.Class
	value float64
}

// tierState is the write-side state of one metric at one tier: the
// active segment file plus, for rollup tiers, the accumulating window.
type tierState struct {
	f       *os.File
	seq     int
	written int64
	// rollup accumulator; acc.Count == 0 means no open window.
	acc Point
}

// shard is the write-side state of one metric across all tiers.
type shard struct {
	name  string
	kind  string
	class telemetry.Class
	tiers [len(resWindowMs)]tierState
}

// Appender is the write path of the store: a bounded in-memory sample
// buffer fed by the obs sampler, drained on a flush interval into
// checksummed blocks, with raw samples simultaneously rolled up into
// the 10 s and 1 m tiers as their windows complete. Append, Flush and
// Close are safe for concurrent use; Close drains everything buffered
// and finalizes partial rollup windows (the lifecycle flush-on-shutdown
// hook calls it).
type Appender struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards buf, clock, dropped, closed
	clock   monoClock
	buf     []sample
	dropped uint64
	closed  bool

	ioMu   sync.Mutex // serializes flushes; guards shards and files
	shards map[string]*shard

	stop      chan struct{}
	flusherWG sync.WaitGroup

	// flushLane, when set, records one span per periodic flush; atomic
	// because SetSpans may race with a flusher already ticking.
	flushLane atomic.Pointer[spans.Lane]
}

// SetSpans gives the periodic flusher a span lane: each interval flush
// records a "tsdb.flush" span there, so traces show when the durable
// store's I/O happens relative to the sweep. Only the flusher goroutine
// uses the lane (lanes are single-goroutine); explicit Flush and Close
// calls stay unrecorded. Safe on a nil Appender or nil lane.
func (a *Appender) SetSpans(lane *spans.Lane) {
	if a == nil {
		return
	}
	a.flushLane.Store(lane)
}

// Create opens a new run directory under root and returns its Appender.
// The run's MANIFEST.json -- the run's telemetry manifest plus its ID --
// is written immediately, so the run is discoverable (if empty) even
// before the first flush.
func Create(root, runID string, man telemetry.Manifest, opts Options) (*Appender, error) {
	opts.setDefaults()
	dir := filepath.Join(root, runID)
	for _, res := range Tiers {
		if err := os.MkdirAll(filepath.Join(dir, res.String()), 0o755); err != nil {
			return nil, fmt.Errorf("tsdb: creating run dir: %w", err)
		}
	}
	meta := Meta{Schema: MetaSchemaVersion, RunID: runID, Manifest: man}
	if err := writeMeta(filepath.Join(dir, metaFileName), meta); err != nil {
		return nil, err
	}
	a := &Appender{
		dir:    dir,
		opts:   opts,
		shards: make(map[string]*shard),
		stop:   make(chan struct{}),
	}
	if opts.FlushEvery > 0 {
		a.flusherWG.Add(1)
		go a.flushLoop()
	}
	return a, nil
}

// Dir returns the run directory the appender writes to.
func (a *Appender) Dir() string { return a.dir }

// Dropped returns how many samples the bounded buffer has discarded.
func (a *Appender) Dropped() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Append buffers one sample per metric at the given instant. The
// instant passes through the run-relative monotonic clock, so stored
// timestamps are strictly non-decreasing regardless of wall-clock
// steps. Appends after Close are dropped. A nil Appender is a no-op,
// so callers thread it unconditionally like a telemetry instrument.
func (a *Appender) Append(now time.Time, metrics []telemetry.Metric) {
	if a == nil || len(metrics) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	ms := a.clock.UnixMs(now)
	for i, m := range metrics {
		if len(a.buf) >= a.opts.BufferLimit {
			a.dropped += uint64(len(metrics) - i)
			break
		}
		a.buf = append(a.buf, sample{ms: ms, name: m.Name, kind: m.Type, class: m.Class, value: m.Value})
	}
}

func (a *Appender) flushLoop() {
	defer a.flusherWG.Done()
	tick := time.NewTicker(a.opts.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-tick.C:
			span := a.flushLane.Load().Start("tsdb.flush")
			a.Flush()
			span.End()
		}
	}
}

// Flush drains the buffer to disk: one raw block per metric with the
// samples accumulated since the last flush, plus rollup blocks for any
// 10 s / 1 m windows those samples completed. It is what the flusher
// calls on its interval, and what live /query calls so reads observe
// everything appended so far.
func (a *Appender) Flush() error {
	a.mu.Lock()
	batch := a.buf
	a.buf = nil
	a.mu.Unlock()
	a.ioMu.Lock()
	defer a.ioMu.Unlock()
	return a.writeBatch(batch, false)
}

// Close drains the buffer, finalizes every open rollup window, syncs
// and closes the shard files. Safe to call more than once; appends
// after Close are dropped.
func (a *Appender) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	batch := a.buf
	a.buf = nil
	a.mu.Unlock()
	close(a.stop)
	a.flusherWG.Wait()

	a.ioMu.Lock()
	defer a.ioMu.Unlock()
	err := a.writeBatch(batch, true)
	for _, sh := range a.shards {
		for t := range sh.tiers {
			ts := &sh.tiers[t]
			if ts.f != nil {
				if e := ts.f.Sync(); e != nil && err == nil {
					err = e
				}
				if e := ts.f.Close(); e != nil && err == nil {
					err = e
				}
				ts.f = nil
			}
		}
	}
	return err
}

// writeBatch appends the batch's raw points and rollups. When final is
// set, open rollup windows are flushed even though incomplete (end of
// run truncates the last window rather than losing it). Caller holds
// ioMu.
func (a *Appender) writeBatch(batch []sample, final bool) error {
	// Group the time-ordered batch by metric, preserving order.
	perMetric := make(map[string][]Point)
	var order []string
	for _, s := range batch {
		sh := a.shards[s.name]
		if sh == nil {
			sh = &shard{name: s.name, kind: s.kind, class: s.class}
			a.shards[s.name] = sh
		}
		if _, seen := perMetric[s.name]; !seen {
			order = append(order, s.name)
		}
		perMetric[s.name] = append(perMetric[s.name], rawPoint(s.ms, s.value))
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, name := range order {
		sh := a.shards[name]
		pts := perMetric[name]
		keep(a.appendTier(sh, Raw, pts))
		for _, res := range Tiers[1:] {
			keep(a.rollup(sh, res, pts, false))
		}
	}
	if final {
		for _, sh := range a.shards {
			for _, res := range Tiers[1:] {
				keep(a.rollup(sh, res, nil, true))
			}
		}
	}
	return firstErr
}

// rollup feeds raw points through the tier's window accumulator,
// appending a rollup point for each window that completes; final
// flushes the open window regardless.
func (a *Appender) rollup(sh *shard, res Res, pts []Point, final bool) error {
	ts := &sh.tiers[res]
	window := res.WindowMs()
	var done []Point
	for _, p := range pts {
		start := p.UnixMs - p.UnixMs%window
		if ts.acc.Count > 0 && start != ts.acc.UnixMs {
			done = append(done, ts.acc)
			ts.acc = Point{}
		}
		if ts.acc.Count == 0 {
			ts.acc = Point{UnixMs: start, Count: 1, Min: p.Min, Max: p.Max, Sum: p.Sum}
			continue
		}
		ts.acc.Count++
		ts.acc.Sum += p.Sum
		if p.Min < ts.acc.Min {
			ts.acc.Min = p.Min
		}
		if p.Max > ts.acc.Max {
			ts.acc.Max = p.Max
		}
	}
	if final && ts.acc.Count > 0 {
		done = append(done, ts.acc)
		ts.acc = Point{}
	}
	if len(done) == 0 {
		return nil
	}
	return a.appendTier(sh, res, done)
}

// appendTier encodes pts as one block on the tier's active segment,
// rotating the segment first when it is over the size threshold.
func (a *Appender) appendTier(sh *shard, res Res, pts []Point) error {
	if len(pts) == 0 {
		return nil
	}
	ts := &sh.tiers[res]
	if ts.f != nil && ts.written >= a.opts.SegmentBytes {
		// Rotate: the old segment is complete and fully durable before
		// the new one exists, so readers always see whole blocks.
		if err := ts.f.Sync(); err != nil {
			return fmt.Errorf("tsdb: rotating %s/%s: %w", res, sh.name, err)
		}
		if err := ts.f.Close(); err != nil {
			return fmt.Errorf("tsdb: rotating %s/%s: %w", res, sh.name, err)
		}
		ts.f, ts.seq, ts.written = nil, ts.seq+1, 0
	}
	if ts.f == nil {
		path := filepath.Join(a.dir, res.String(), segmentFileName(sh.name, ts.seq))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("tsdb: opening segment: %w", err)
		}
		hdr := segHeader{res, sh.kind, sh.class, sh.name}.String()
		if _, err := f.WriteString(hdr); err != nil {
			f.Close()
			return fmt.Errorf("tsdb: writing segment header: %w", err)
		}
		ts.f, ts.written = f, int64(len(hdr))
	}
	block := appendBlock(nil, res, pts)
	n, err := ts.f.Write(block)
	ts.written += int64(n)
	if err != nil {
		return fmt.Errorf("tsdb: appending block to %s/%s: %w", res, sh.name, err)
	}
	return nil
}

// segmentFileName renders the on-disk name of a metric's numbered
// segment; metric names pass through sanitizeMetric so they are safe as
// file names (the header keeps the authoritative name).
func segmentFileName(metric string, seq int) string {
	return fmt.Sprintf("%s.%05d.tsd", sanitizeMetric(metric), seq)
}

// sanitizeMetric maps a metric name to a file-name-safe form.
func sanitizeMetric(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, name)
}
