package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"onchip/internal/report"
	"onchip/internal/telemetry"
)

// RunSchemaVersion is the run-file schema this package writes and the
// only one it reads. Version 2 added each metric's class; older files
// are refused with a request to re-record them rather than classified
// by name, and newer ones rather than silently misread.
const RunSchemaVersion = 2

// Run is a persisted end-of-run snapshot: the manifest identifying the
// run and every collected metric. `memalloc history` writes one as
// BENCH_<runid>.json; `memalloc compare` diffs two.
type Run struct {
	Schema   int                 `json:"schema,omitempty"`
	Manifest *telemetry.Manifest `json:"manifest,omitempty"`
	Metrics  []telemetry.Metric  `json:"metrics"`
}

// RunID names a run file: UTC timestamp plus the producing command,
// e.g. "20260806T151204Z-memalloc".
func RunID(command string, t time.Time) string {
	return t.UTC().Format("20060102T150405Z") + "-" + command
}

// RunFileName is the conventional file name for a run snapshot.
func RunFileName(runID string) string {
	return "BENCH_" + runID + ".json"
}

// WriteRunFile persists the run as indented JSON, stamping the current
// schema version when the caller left it zero.
func WriteRunFile(path string, r Run) error {
	data, err := marshalRun(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func marshalRun(r Run) ([]byte, error) {
	if r.Schema == 0 {
		r.Schema = RunSchemaVersion
	}
	data, err := json.MarshalIndent(r, "", "  ")
	return append(data, '\n'), err
}

// ReadRunFile loads a run snapshot written by WriteRunFile at the
// current schema.
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

func parseRun(data []byte) (Run, error) {
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return Run{}, err
	}
	if r.Schema > RunSchemaVersion {
		return Run{}, fmt.Errorf("run-file schema %d is newer than this binary supports (%d)",
			r.Schema, RunSchemaVersion)
	}
	if r.Schema < RunSchemaVersion {
		return Run{}, fmt.Errorf("run-file schema %d predates metric classes (schema %d); re-record it with this binary",
			r.Schema, RunSchemaVersion)
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
// width, shard count, trace-cache traffic) and WallClock metrics (span
// durations, latency) differ between correct runs by nature, so a
// metric of either class in either run is skipped entirely, presence
// included.
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
