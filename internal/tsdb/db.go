package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"onchip/internal/telemetry"
)

// ErrNoSeries marks a query for a (run, metric, tier) with no stored
// shard: an unknown metric, or a rollup tier whose first window never
// completed before the run ended or crashed.
var ErrNoSeries = errors.New("no stored series")

// MetaSchemaVersion is the MANIFEST.json schema this package writes.
// Readers accept 0 (legacy, no field) through the current version and
// reject newer files rather than misreading them.
const MetaSchemaVersion = 1

const metaFileName = "MANIFEST.json"

// Meta identifies one stored run: the run's telemetry manifest,
// persisted next to its shards with the run ID.
type Meta struct {
	Schema int    `json:"schema"`
	RunID  string `json:"run_id"`
	telemetry.Manifest
}

func writeMeta(path string, m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("tsdb: encoding manifest: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("tsdb: writing manifest: %w", err)
	}
	return nil
}

func readMeta(path string) (Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("tsdb: %s: %w", path, err)
	}
	if m.Schema > MetaSchemaVersion {
		return Meta{}, fmt.Errorf("tsdb: %s: manifest schema %d is newer than this binary supports (%d)",
			path, m.Schema, MetaSchemaVersion)
	}
	return m, nil
}

// DB reads a store root written by one or more Appenders. Opening is
// free -- every method hits the filesystem directly, so a DB always
// sees the latest flushed state, including shards a still-running
// process is appending to.
type DB struct {
	root string
}

// Open returns a reader over the store rooted at dir. The directory
// need not exist yet (a store with no runs is empty, not an error).
func Open(root string) *DB { return &DB{root: root} }

// Runs lists the stored runs, oldest first (run IDs sort by their
// leading UTC timestamp). Directories without a readable manifest are
// skipped: a concurrent Create may not have written one yet.
func (db *DB) Runs() ([]Meta, error) {
	entries, err := os.ReadDir(db.root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tsdb: listing runs: %w", err)
	}
	var runs []Meta
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := readMeta(filepath.Join(db.root, e.Name(), metaFileName))
		if err != nil {
			continue
		}
		if m.RunID == "" {
			m.RunID = e.Name()
		}
		runs = append(runs, m)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].RunID < runs[j].RunID })
	return runs, nil
}

// MetricInfo names one stored series of a run.
type MetricInfo struct {
	Name  string          `json:"name"`
	Kind  string          `json:"kind"`            // "counter", "gauge" or "histogram"
	Class telemetry.Class `json:"class,omitempty"` // omitted for Result
}

// Metrics lists the metrics a run stored, sorted by name. Names and
// classes come from the segment headers, not the (sanitized) file
// names. A run recorded before the current shard format is an error.
func (db *DB) Metrics(runID string) ([]MetricInfo, error) {
	dir := filepath.Join(db.root, runID, Raw.String())
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: run %s: %w", runID, err)
	}
	seen := make(map[string]bool)
	var out []MetricInfo
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".tsd") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		h, _, err := parseSegmentHeader(data)
		if errors.Is(err, errOldFormat) {
			return nil, fmt.Errorf("tsdb: run %s: %w", runID, err)
		}
		if err != nil || seen[h.metric] {
			continue
		}
		seen[h.metric] = true
		out = append(out, MetricInfo{Name: h.metric, Kind: h.kind, Class: h.class})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Series is one query result: a metric's stored points at one tier.
type Series struct {
	RunID  string  `json:"run_id"`
	Metric string  `json:"metric"`
	Kind   string  `json:"kind"`
	Res    string  `json:"res"`
	Points []Point `json:"points"`
	// Truncated reports that a segment ended in a torn block (crash
	// mid-append); the points before the tear are still served.
	Truncated bool `json:"truncated,omitempty"`
}

// Query reads one metric's points at the given tier, keeping those with
// fromMs <= UnixMs and (toMs == 0 or UnixMs <= toMs). Segments are read
// in rotation order; a torn tail block in any segment marks the series
// Truncated but is not an error.
func (db *DB) Query(runID, metric string, res Res, fromMs, toMs int64) (Series, error) {
	s := Series{RunID: runID, Metric: metric, Res: res.String()}
	dir := filepath.Join(db.root, runID, res.String())
	pattern := filepath.Join(dir, sanitizeMetric(metric)+".*.tsd")
	segs, err := filepath.Glob(pattern)
	if err != nil {
		return s, fmt.Errorf("tsdb: query: %w", err)
	}
	if len(segs) == 0 {
		return s, fmt.Errorf("tsdb: run %s has no %s shard for metric %q: %w", runID, res, metric, ErrNoSeries)
	}
	sort.Strings(segs) // zero-padded seq numbers sort correctly
	var pts []Point
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return s, fmt.Errorf("tsdb: query: %w", err)
		}
		h, rest, err := parseSegmentHeader(data)
		if err != nil {
			return s, fmt.Errorf("tsdb: %s: %w", seg, err)
		}
		if h.res != res || h.metric != metric {
			continue // sanitized-name collision with another metric
		}
		s.Kind = h.kind
		var torn bool
		if pts, torn, err = decodeBlocks(pts, res, rest); err != nil {
			return s, fmt.Errorf("tsdb: %s: %w", seg, err)
		}
		s.Truncated = s.Truncated || torn
	}
	s.Points = filterRange(pts, fromMs, toMs)
	return s, nil
}

// filterRange keeps points in [fromMs, toMs]; toMs 0 means unbounded.
func filterRange(pts []Point, fromMs, toMs int64) []Point {
	if fromMs == 0 && toMs == 0 {
		return pts
	}
	out := pts[:0]
	for _, p := range pts {
		if p.UnixMs < fromMs || (toMs != 0 && p.UnixMs > toMs) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Scalar reduces a run's series to the single value trend regression
// uses: the final sample for counters (they are cumulative, so the last
// value is the run total) and the sample mean for gauges and histogram
// means. It prefers the raw tier and falls back to coarser tiers when
// raw was retired.
func (db *DB) Scalar(runID, metric string) (float64, error) {
	var lastErr error
	for _, res := range Tiers {
		s, err := db.Query(runID, metric, res, 0, 0)
		if err != nil {
			lastErr = err
			continue
		}
		if len(s.Points) == 0 {
			lastErr = fmt.Errorf("tsdb: run %s metric %q: empty series", runID, metric)
			continue
		}
		if s.Kind == "counter" {
			last := s.Points[len(s.Points)-1]
			return last.Max, nil // == value for raw; window max for rollups
		}
		var sum float64
		var n uint64
		for _, p := range s.Points {
			sum += p.Sum
			n += p.Count
		}
		if n == 0 {
			return 0, fmt.Errorf("tsdb: run %s metric %q: no observations", runID, metric)
		}
		return sum / float64(n), nil
	}
	return math.NaN(), lastErr
}
