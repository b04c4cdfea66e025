package tsdb

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"onchip/internal/telemetry"
)

// Trend is the least-squares regression of one metric's per-run scalar
// across a sequence of stored runs -- the longitudinal generalization
// of the pairwise `memalloc compare`: instead of asking "did these two
// runs differ", it asks "is this metric drifting across the fleet".
type Trend struct {
	Metric string `json:"metric"`
	Kind   string `json:"kind"`
	// Runs and Values are the per-run scalars the line was fit to, in
	// run order (Values[i] belongs to Runs[i]).
	Runs   []string  `json:"runs"`
	Values []float64 `json:"values"`
	// Slope is the fitted change per run; Intercept the fitted value at
	// the first run.
	Slope     float64 `json:"slope"`
	Intercept float64 `json:"intercept"`
	// Rel is |Slope| normalized by the mean |value|: a per-run relative
	// drift rate, comparable across metrics of any magnitude.
	Rel float64 `json:"rel"`
	// R2 is the regression's coefficient of determination: how much of
	// the run-to-run variance the line explains. Sustained drift has
	// both a large Rel and a large R2; noise has a small R2.
	R2 float64 `json:"r2"`
}

// Drifting reports whether the trend is a sustained drift: relative
// slope beyond threshold with the line explaining at least minR2 of the
// variance. Fewer than 3 runs never count as sustained.
func (t Trend) Drifting(threshold, minR2 float64) bool {
	return len(t.Runs) >= 3 && t.Rel > threshold && t.R2 >= minR2
}

// TrendMetric fits a regression line through metric's scalar in each of
// the given runs, in order.
func (db *DB) TrendMetric(metric string, runIDs []string) (Trend, error) {
	t := Trend{Metric: metric}
	for _, id := range runIDs {
		v, err := db.Scalar(id, metric)
		if err != nil {
			return t, err
		}
		t.Runs = append(t.Runs, id)
		t.Values = append(t.Values, v)
	}
	if s, err := db.Query(runIDs[0], metric, Raw, 0, 0); err == nil {
		t.Kind = s.Kind
	}
	t.fit()
	return t, nil
}

// fit computes the least-squares line over x = 0..n-1.
func (t *Trend) fit() {
	n := float64(len(t.Values))
	if n < 2 {
		t.R2 = 0
		return
	}
	var sx, sy, sxx, sxy float64
	for i, y := range t.Values {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	t.Slope = (n*sxy - sx*sy) / den
	t.Intercept = (sy - t.Slope*sx) / n
	meanY := sy / n
	var ssTot, ssRes, meanAbs float64
	for i, y := range t.Values {
		fitted := t.Intercept + t.Slope*float64(i)
		ssTot += (y - meanY) * (y - meanY)
		ssRes += (y - fitted) * (y - fitted)
		meanAbs += math.Abs(y)
	}
	meanAbs /= n
	if meanAbs > 0 {
		t.Rel = math.Abs(t.Slope) / meanAbs
	} else if t.Slope != 0 {
		t.Rel = math.Inf(1)
	}
	switch {
	case ssTot > 0:
		t.R2 = 1 - ssRes/ssTot
	case t.Slope == 0:
		t.R2 = 1 // constant series, perfectly explained
	default:
		t.R2 = 0
	}
}

// TrendOptions select which runs and metrics TrendAll fits.
type TrendOptions struct {
	// LastN keeps only the newest N runs; 0 keeps all.
	LastN int
	// Match keeps metrics containing the substring; empty keeps all.
	Match string
	// IncludeWallClock also fits wall-clock metrics (per
	// telemetry.IsWallClock: *_seconds* timings and span.* duration
	// folds), which `memalloc compare` excludes as machine-dependent;
	// off by default so trend gating inherits the same determinism
	// contract.
	IncludeWallClock bool
}

// TrendAll fits every metric stored in all of the selected runs (a
// metric missing from some run is a presence question for `memalloc
// compare`, not a trend) and returns the fits sorted by descending
// relative drift. It errors when fewer than 2 selected runs exist.
func (db *DB) TrendAll(opts TrendOptions) ([]Trend, error) {
	runs, err := db.Runs()
	if err != nil {
		return nil, err
	}
	if opts.LastN > 0 && len(runs) > opts.LastN {
		runs = runs[len(runs)-opts.LastN:]
	}
	if len(runs) < 2 {
		return nil, fmt.Errorf("tsdb: trend needs at least 2 stored runs, have %d", len(runs))
	}
	ids := make([]string, len(runs))
	inAll := make(map[string]int)
	for i, r := range runs {
		ids[i] = r.RunID
		metrics, err := db.Metrics(r.RunID)
		if err != nil {
			return nil, err
		}
		for _, m := range metrics {
			inAll[m.Name]++
		}
	}
	var names []string
	for name, n := range inAll {
		if n != len(runs) {
			continue
		}
		if !opts.IncludeWallClock && telemetry.IsWallClock(name) {
			continue
		}
		if opts.Match != "" && !strings.Contains(name, opts.Match) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Trend, 0, len(names))
	for _, name := range names {
		t, err := db.TrendMetric(name, ids)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rel > out[j].Rel })
	return out, nil
}
