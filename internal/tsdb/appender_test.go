package tsdb

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"onchip/internal/telemetry"
)

// manual returns an appender with the background flusher disabled, so
// tests control exactly when batches hit disk.
func manual(t *testing.T, opts Options) (*Appender, string) {
	t.Helper()
	root := t.TempDir()
	opts.FlushEvery = -1
	a, err := Create(root, "20260808T000000Z-test", telemetry.Manifest{Command: "test"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, root
}

func sampleMetrics(v float64) []telemetry.Metric {
	return []telemetry.Metric{
		{Name: "machine.cycles", Type: "counter", Value: v * 10},
		{Name: "sweep.depth", Type: "gauge", Class: telemetry.Arrangement, Value: v},
	}
}

// appendRamp feeds n samples at the given period starting at t0, with
// values off, off+1, ...
func appendRamp(a *Appender, t0 time.Time, period time.Duration, n, off int) {
	for i := 0; i < n; i++ {
		a.Append(t0.Add(time.Duration(i)*period), sampleMetrics(float64(off+i)))
	}
}

func TestAppendFlushQueryRoundTrip(t *testing.T) {
	a, root := manual(t, Options{})
	t0 := time.UnixMilli(1_000_000)
	appendRamp(a, t0, 250*time.Millisecond, 100, 0) // 25 s: crosses 10 s windows
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	appendRamp(a, t0.Add(25*time.Second), 250*time.Millisecond, 100, 0)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	db := Open(root)
	runs, err := db.Runs()
	if err != nil || len(runs) != 1 {
		t.Fatalf("Runs = %+v, %v", runs, err)
	}
	if runs[0].RunID != "20260808T000000Z-test" || runs[0].Schema != MetaSchemaVersion {
		t.Errorf("run meta = %+v", runs[0])
	}
	metrics, err := db.Metrics(runs[0].RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := []MetricInfo{{"machine.cycles", "counter", telemetry.Result}, {"sweep.depth", "gauge", telemetry.Arrangement}}
	if !reflect.DeepEqual(metrics, want) {
		t.Fatalf("Metrics = %+v", metrics)
	}

	s, err := db.Query(runs[0].RunID, "sweep.depth", Raw, 0, 0)
	if err != nil || s.Truncated {
		t.Fatalf("raw query: %+v, %v", s, err)
	}
	if len(s.Points) != 200 || s.Kind != "gauge" {
		t.Fatalf("raw points = %d kind=%q, want 200 gauge", len(s.Points), s.Kind)
	}
	for i, p := range s.Points {
		wantMs := int64(1_000_000) + int64(i)*250
		if p.UnixMs != wantMs || p.Sum != float64(i%100) || p.Count != 1 {
			t.Fatalf("point %d = %+v", i, p)
		}
	}

	// Rollups must equal a from-scratch recompute over the raw points.
	for _, res := range []Res{R10s, R1m} {
		got, err := db.Query(runs[0].RunID, "sweep.depth", res, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := recomputeRollup(s.Points, res, true); !reflect.DeepEqual(got.Points, want) {
			t.Fatalf("%s rollup:\ngot  %+v\nwant %+v", res, got.Points, want)
		}
	}

	// Range filtering keeps [from, to] inclusive; to=0 is unbounded.
	ranged, err := db.Query(runs[0].RunID, "sweep.depth", Raw, 1_000_500, 1_001_000)
	if err != nil || len(ranged.Points) != 3 {
		t.Fatalf("ranged = %d points, %v, want 3", len(ranged.Points), err)
	}
	tail, err := db.Query(runs[0].RunID, "sweep.depth", Raw, 1_000_000+49*250, 0)
	if err != nil || len(tail.Points) != 200-49 {
		t.Fatalf("tail = %d points, %v", len(tail.Points), err)
	}
}

// recomputeRollup is the from-scratch oracle for the flush-time rollup
// path: aggregate raw points into res windows; includePartial emits the
// final open window (what Close does).
func recomputeRollup(raw []Point, res Res, includePartial bool) []Point {
	window := res.WindowMs()
	var out []Point
	var acc Point
	for _, p := range raw {
		start := p.UnixMs - p.UnixMs%window
		if acc.Count > 0 && start != acc.UnixMs {
			out = append(out, acc)
			acc = Point{}
		}
		if acc.Count == 0 {
			acc = Point{UnixMs: start, Count: 1, Min: p.Min, Max: p.Max, Sum: p.Sum}
			continue
		}
		acc.Count++
		acc.Sum += p.Sum
		if p.Min < acc.Min {
			acc.Min = p.Min
		}
		if p.Max > acc.Max {
			acc.Max = p.Max
		}
	}
	if includePartial && acc.Count > 0 {
		out = append(out, acc)
	}
	return out
}

// TestSegmentRotation forces a tiny segment threshold and checks the
// shard rotates into several files whose concatenation is the series.
func TestSegmentRotation(t *testing.T) {
	a, root := manual(t, Options{SegmentBytes: 256})
	t0 := time.UnixMilli(0)
	for i := 0; i < 50; i++ {
		a.Append(t0.Add(time.Duration(i)*time.Second), sampleMetrics(float64(i)))
		if i%5 == 4 {
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(a.Dir(), "raw", "sweep.depth.*.tsd"))
	if len(segs) < 2 {
		t.Fatalf("segments = %v, want rotation into several files", segs)
	}
	s, err := Open(root).Query("20260808T000000Z-test", "sweep.depth", Raw, 0, 0)
	if err != nil || s.Truncated || len(s.Points) != 50 {
		t.Fatalf("query across segments: %d points truncated=%v err=%v", len(s.Points), s.Truncated, err)
	}
	for i, p := range s.Points {
		if p.Sum != float64(i) {
			t.Fatalf("point %d = %+v after rotation", i, p)
		}
	}
}

func TestBoundedBufferDrops(t *testing.T) {
	a, _ := manual(t, Options{BufferLimit: 5})
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		a.Append(t0.Add(time.Duration(i)*time.Millisecond), sampleMetrics(1))
	}
	// 10 appends x 2 metrics = 20 samples against a 5-sample bound.
	if d := a.Dropped(); d != 15 {
		t.Fatalf("Dropped = %d, want 15", d)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.Dropped() != 15 {
		t.Error("flush must not change the dropped count")
	}
}

func TestAppenderNilAndClosed(t *testing.T) {
	var nilA *Appender
	nilA.Append(time.Now(), sampleMetrics(1)) // must not panic
	if err := nilA.Close(); err != nil {
		t.Fatal(err)
	}
	a, root := manual(t, Options{})
	a.Append(time.UnixMilli(1000), sampleMetrics(1))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Append(time.UnixMilli(2000), sampleMetrics(2)) // dropped silently
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(root).Query("20260808T000000Z-test", "sweep.depth", Raw, 0, 0)
	if err != nil || len(s.Points) != 1 {
		t.Fatalf("post-close append leaked: %d points, %v", len(s.Points), err)
	}
}

// TestBackgroundFlusher exercises the ticker path end to end: samples
// appended while the flusher runs become readable without Close.
func TestBackgroundFlusher(t *testing.T) {
	root := t.TempDir()
	a, err := Create(root, "r", telemetry.Manifest{}, Options{FlushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	appendRamp(a, time.Now(), time.Millisecond, 10, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := Open(root).Query("r", "sweep.depth", Raw, 0, 0)
		if err == nil && len(s.Points) == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background flusher never persisted: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashMidFlush simulates a kill during an append: after writing
// several flushed batches, the active raw segment is truncated at an
// arbitrary mid-block offset (what a crash mid-write leaves). Reopening
// must (a) surface no torn block -- the decoded series is a clean
// prefix -- and (b) leave the stored rollups consistent with a
// from-scratch recompute over the surviving raw points.
func TestCrashMidFlush(t *testing.T) {
	a, root := manual(t, Options{})
	t0 := time.UnixMilli(5_000)
	for batch := 0; batch < 6; batch++ {
		appendRamp(a, t0.Add(time.Duration(batch)*20*250*time.Millisecond), 250*time.Millisecond, 20, batch*20)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Kill: no Close. Tear the last bytes off the active raw segment.
	rawSeg := filepath.Join(a.Dir(), "raw", "sweep.depth.00000.tsd")
	fi, err := os.Stat(rawSeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(rawSeg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	db := Open(root)
	s, err := db.Query("20260808T000000Z-test", "sweep.depth", Raw, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated {
		t.Error("torn tail must be reported as Truncated")
	}
	// The surviving series is the clean prefix: the five whole blocks.
	if len(s.Points) != 100 {
		t.Fatalf("surviving raw points = %d, want the 100 from whole blocks", len(s.Points))
	}
	for i, p := range s.Points {
		if p.UnixMs != 5_000+int64(i)*250 || p.Sum != float64(i) {
			t.Fatalf("surviving point %d = %+v", i, p)
		}
	}

	// Stored rollups hold only windows that completed before the kill:
	// they must be a prefix of the recompute over surviving raw points,
	// matching exactly window for window.
	for _, res := range []Res{R10s, R1m} {
		got, err := db.Query("20260808T000000Z-test", "sweep.depth", res, 0, 0)
		if err != nil && !errors.Is(err, ErrNoSeries) {
			// A tier whose first window never completed before the kill
			// legitimately has no shard yet; anything else is a bug.
			t.Fatal(err)
		}
		oracle := recomputeRollup(s.Points, res, true)
		if len(got.Points) > len(oracle) {
			t.Fatalf("%s: stored %d windows, recompute has %d", res, len(got.Points), len(oracle))
		}
		for i, p := range got.Points {
			if !reflect.DeepEqual(p, oracle[i]) {
				t.Fatalf("%s window %d: stored %+v, recompute %+v", res, i, p, oracle[i])
			}
		}
	}
}
