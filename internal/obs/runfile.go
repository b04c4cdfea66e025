package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"onchip/internal/report"
	"onchip/internal/telemetry"
)

// Run is a parsed run snapshot: the -metrics JSONL every binary writes,
// which `memalloc compare` diffs.
type Run struct {
	Manifest *telemetry.Manifest // nil when the file has no manifest line
	Metrics  []telemetry.Metric
}

// ReadRunFile loads a -metrics snapshot, naming the file in any
// error.
func ReadRunFile(path string) (Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Run{}, err
	}
	r, err := parseRun(data)
	if err != nil {
		return Run{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// parseRun decodes what telemetry.WriteJSONL writes: an optional
// manifest line, then one metric per line. A metric without a class is
// a result metric. It refuses, naming the line, a line that does not
// parse, a manifest after the first line, a type it does not know, and
// the indented run files `memalloc history` used to write, and a file
// with neither a manifest nor a metric, which no run writes. Blank
// lines are skipped.
func parseRun(data []byte) (Run, error) {
	var r Run
	for n, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if string(line) == "{" {
			return Run{}, fmt.Errorf("line %d: an indented run file from the removed \"memalloc history\"; re-record it with -metrics", n+1)
		}
		// The manifest and metric fields do not overlap, so one decode
		// reads either kind of line.
		var v struct {
			telemetry.Manifest
			telemetry.Metric
		}
		if err := json.Unmarshal(line, &v); err != nil {
			return Run{}, fmt.Errorf("line %d: %w", n+1, err)
		}
		switch v.Type {
		case "manifest":
			if r.Manifest != nil || len(r.Metrics) > 0 {
				return Run{}, fmt.Errorf("line %d: a manifest after the first line", n+1)
			}
			r.Manifest = &v.Manifest
		case "counter", "gauge", "histogram":
			r.Metrics = append(r.Metrics, v.Metric)
		default:
			return Run{}, fmt.Errorf("line %d: unknown type %q", n+1, v.Type)
		}
	}
	if r.Manifest == nil && len(r.Metrics) == 0 {
		return Run{}, errors.New("empty run file: no manifest and no metric")
	}
	return r, nil
}

// CPI derives cycles-per-instruction from the machine counters, when
// the run collected them.
func (r Run) CPI() (float64, bool) {
	var cycles, instrs float64
	for _, m := range r.Metrics {
		switch m.Name {
		case "machine.cycles":
			cycles = m.Value
		case "machine.instructions":
			instrs = m.Value
		}
	}
	if instrs == 0 {
		return 0, false
	}
	return cycles / instrs, true
}

// Delta is one metric field that moved between two runs.
type Delta struct {
	Metric string  // metric name, or "cpi (machine.cycles/instructions)" for the derived ratio
	Field  string  // "value", "max", "count", "sum" or "presence"
	A, B   float64 // the two runs' values
	Rel    float64 // |B-A| / |A|; +Inf when A is 0 or the metric is one-sided
}

// Compare diffs two runs and returns every counter, gauge, histogram or
// derived-CPI delta whose relative change exceeds threshold, largest
// first. Metrics present in only one run are always flagged (Field
// "presence"). An empty result means the runs agree to within the
// threshold — the determinism check CI relies on.
//
// Only telemetry.Result metrics are compared. Arrangement metrics (pool
// width, trace-cache traffic) and WallClock metrics (span durations,
// latency) differ between correct runs by nature, so a metric of either
// class in either run is skipped entirely, presence included.
func Compare(a, b Run, threshold float64) []Delta {
	am := indexMetrics(a.Metrics)
	bm := indexMetrics(b.Metrics)
	names := make(map[string]bool, len(am)+len(bm))
	for n := range am {
		names[n] = true
	}
	for n := range bm {
		names[n] = true
	}

	var out []Delta
	flag := func(name, field string, va, vb float64) {
		if d := rel(va, vb); d > threshold {
			out = append(out, Delta{Metric: name, Field: field, A: va, B: vb, Rel: d})
		}
	}
	for name := range names {
		ma, oka := am[name]
		mb, okb := bm[name]
		if ma.Class != telemetry.Result || mb.Class != telemetry.Result {
			continue
		}
		if !oka || !okb {
			var va, vb float64
			if oka {
				va = ma.Value
			}
			if okb {
				vb = mb.Value
			}
			out = append(out, Delta{Metric: name, Field: "presence", A: va, B: vb, Rel: math.Inf(1)})
			continue
		}
		flag(name, "value", ma.Value, mb.Value)
		if ma.Type == "gauge" {
			flag(name, "max", ma.Max, mb.Max)
		}
		if ma.Type == "histogram" {
			flag(name, "count", float64(ma.Count), float64(mb.Count))
			flag(name, "sum", float64(ma.Sum), float64(mb.Sum))
		}
	}
	if ca, oka := a.CPI(); oka {
		if cb, okb := b.CPI(); okb {
			flag("cpi (machine.cycles/instructions)", "value", ca, cb)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel > out[j].Rel
		}
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].Field < out[j].Field
	})
	return out
}

func indexMetrics(metrics []telemetry.Metric) map[string]telemetry.Metric {
	m := make(map[string]telemetry.Metric, len(metrics))
	for _, x := range metrics {
		m[x.Name] = x
	}
	return m
}

// rel is the relative change from a to b: 0 when both are 0, +Inf when
// only a is 0.
func rel(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// FormatDeltas renders a comparison as the repo's standard table.
func FormatDeltas(deltas []Delta) string {
	t := report.NewTable("Run comparison: metrics beyond threshold",
		"Metric", "Field", "A", "B", "Delta")
	for _, d := range deltas {
		t.Row(d.Metric, d.Field,
			fmt.Sprintf("%g", d.A), fmt.Sprintf("%g", d.B),
			fmt.Sprintf("%+.2f%%", 100*(d.Rel)*sign(d.B-d.A)))
	}
	return t.String()
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
