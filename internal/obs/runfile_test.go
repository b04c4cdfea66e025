package obs

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"onchip/internal/telemetry"
)

func baselineRun() Run {
	return Run{
		Manifest: &telemetry.Manifest{Command: "memalloc history"},
		Metrics: []telemetry.Metric{
			{Name: "machine.cycles", Type: "counter", Value: 1_500_000},
			{Name: "machine.instructions", Type: "counter", Value: 1_000_000},
			{Name: "sweep.depth", Type: "gauge", Value: 2, Max: 8},
			{Name: "tlb.miss_cost", Type: "histogram", Value: 20, Count: 100, Sum: 2000},
		},
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	id := RunID("memalloc", time.Date(2026, 8, 6, 15, 12, 4, 0, time.UTC))
	if id != "20260806T151204Z-memalloc" {
		t.Errorf("RunID = %q", id)
	}
	name := RunFileName(id)
	if name != "BENCH_20260806T151204Z-memalloc.json" {
		t.Errorf("RunFileName = %q", name)
	}
	path := filepath.Join(t.TempDir(), name)
	want := baselineRun()
	if err := WriteRunFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Command != want.Manifest.Command || len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("round trip: got %+v", got)
	}
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		t.Errorf("metrics: got %+v, want %+v", got.Metrics, want.Metrics)
	}
	if got.Schema != RunSchemaVersion {
		t.Errorf("Schema = %d, want stamped %d", got.Schema, RunSchemaVersion)
	}
}

// TestRunFileSchemaVersions pins the compatibility contract: the
// current schema round-trips, while files that predate metric classes
// (no schema field, or schema 1) and files from a newer binary are
// refused with a message saying why.
func TestRunFileSchemaVersions(t *testing.T) {
	dir := t.TempDir()

	explicit := filepath.Join(dir, "explicit.json")
	r := baselineRun()
	r.Schema = RunSchemaVersion
	if err := WriteRunFile(explicit, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunFile(explicit)
	if err != nil || got.Schema != RunSchemaVersion {
		t.Fatalf("explicit schema round trip: %+v, %v", got.Schema, err)
	}

	for _, schema := range []string{``, `"schema":1,`} {
		legacy := filepath.Join(dir, "legacy.json")
		body := `{` + schema + `"manifest":{"command":"memalloc history"},"metrics":[{"name":"machine.cycles","type":"counter","value":10}]}`
		if err := os.WriteFile(legacy, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadRunFile(legacy); err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Errorf("pre-class file %s: err = %v, want a re-record refusal", body, err)
		}
	}

	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"schema":99,"metrics":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunFile(future); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Errorf("future schema error = %v, want refusal naming the version", err)
	}
}

func TestReadRunFileErrors(t *testing.T) {
	if _, err := ReadRunFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunFile(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("corrupt file error = %v, want path-prefixed parse error", err)
	}
}

func TestCPI(t *testing.T) {
	r := baselineRun()
	cpi, ok := r.CPI()
	if !ok || cpi != 1.5 {
		t.Errorf("CPI = %g (ok=%v), want 1.5", cpi, ok)
	}
	if _, ok := (Run{}).CPI(); ok {
		t.Error("empty run must have no CPI")
	}
}

func TestCompareIdenticalRunsAgree(t *testing.T) {
	if d := Compare(baselineRun(), baselineRun(), 0.01); len(d) != 0 {
		t.Errorf("identical runs: deltas = %+v, want none", d)
	}
}

// TestCompareFlagsCPIRegression injects a 10% cycle regression and
// checks the comparator flags both the raw counter and the derived CPI.
func TestCompareFlagsCPIRegression(t *testing.T) {
	a, b := baselineRun(), baselineRun()
	b.Metrics[0].Value = 1_650_000 // machine.cycles +10%
	deltas := Compare(a, b, 0.01)
	var sawCycles, sawCPI bool
	for _, d := range deltas {
		switch d.Metric {
		case "machine.cycles":
			sawCycles = true
			if math.Abs(d.Rel-0.10) > 1e-9 {
				t.Errorf("cycles Rel = %g, want 0.10", d.Rel)
			}
		case "cpi (machine.cycles/instructions)":
			sawCPI = true
			if d.A != 1.5 || math.Abs(d.B-1.65) > 1e-9 {
				t.Errorf("cpi delta = %+v", d)
			}
		default:
			t.Errorf("unexpected delta %+v", d)
		}
	}
	if !sawCycles || !sawCPI {
		t.Errorf("deltas = %+v, want machine.cycles and derived CPI", deltas)
	}
	// The same regression is invisible at a 20% threshold.
	if d := Compare(a, b, 0.20); len(d) != 0 {
		t.Errorf("threshold 0.20: deltas = %+v, want none", d)
	}
}

// TestCompareSkipsWallClockMetrics pins the determinism contract: the
// wall-clock span folds and the arrangement metrics (pool width,
// trace-cache hits) vary between correct runs by nature and must never
// trip a zero-threshold comparison, in either direction and even when
// present in only one run. Their class, not their name, decides.
func TestCompareSkipsWallClockMetrics(t *testing.T) {
	a, b := baselineRun(), baselineRun()
	a.Metrics = append(a.Metrics,
		telemetry.Metric{Name: "span.sweep.model_us", Type: "histogram", Class: telemetry.WallClock, Value: 4310, Count: 1, Sum: 4310},
		telemetry.Metric{Name: "sweep.workers", Type: "gauge", Class: telemetry.Arrangement, Value: 1, Max: 1},
		telemetry.Metric{Name: "span.generate.measure_us", Type: "histogram", Class: telemetry.WallClock, Value: 20, Count: 1, Sum: 20},
	)
	b.Metrics = append(b.Metrics,
		telemetry.Metric{Name: "span.sweep.model_us", Type: "histogram", Class: telemetry.WallClock, Value: 1070, Count: 1, Sum: 1070},
		telemetry.Metric{Name: "sweep.workers", Type: "gauge", Class: telemetry.Arrangement, Value: 8, Max: 8},
		telemetry.Metric{Name: "tracecache.hit", Type: "counter", Class: telemetry.Arrangement, Value: 7},
	)
	if d := Compare(a, b, 0); len(d) != 0 {
		t.Errorf("wall-clock or arrangement metrics flagged: %+v", d)
	}
	// A result drift alongside them is still caught (as the raw counter
	// plus the derived CPI), with no other rows mixed in.
	b.Metrics[0].Value++
	d := Compare(a, b, 0)
	if len(d) != 2 {
		t.Fatalf("deltas = %+v, want machine.cycles and derived CPI only", d)
	}
}

// FuzzReadRunFile feeds arbitrary bytes to the run-file decoder: it
// must either refuse them or yield a Run that writes and reads back
// equal, so a file `memalloc compare` accepted means what it says.
func FuzzReadRunFile(f *testing.F) {
	r := baselineRun()
	r.Metrics = append(r.Metrics, telemetry.Metric{Name: "sweep.workers", Type: "gauge", Class: telemetry.Arrangement, Value: 8, Max: 8})
	valid, err := marshalRun(r)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"schema":2,"metrics":[{"name":"x","type":"counter","class":"wallclock","value":1}]}`))
	f.Add([]byte(`{"schema":1,"metrics":[]}`))
	f.Add([]byte(`{not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseRun(data)
		if err != nil {
			return
		}
		out, err := marshalRun(got)
		if err != nil {
			t.Fatalf("accepted run does not write: %v", err)
		}
		back, err := parseRun(out)
		if err != nil {
			t.Fatalf("written run does not read back: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(normalized(back), normalized(got)) {
			t.Fatalf("round trip changed the run:\n got %+v\nback %+v", got, back)
		}
	})
}

// normalized maps the empty slices and maps that JSON's omitempty
// writes back as absent to nil, so equality means the same content.
func normalized(r Run) Run {
	if r.Manifest != nil {
		m := *r.Manifest
		if len(m.Args) == 0 {
			m.Args = nil
		}
		if len(m.Labels) == 0 {
			m.Labels = nil
		}
		r.Manifest = &m
	}
	metrics := make([]telemetry.Metric, len(r.Metrics))
	for i, m := range r.Metrics {
		if len(m.Buckets) == 0 {
			m.Buckets = nil
		}
		metrics[i] = m
	}
	r.Metrics = metrics
	return r
}

func TestComparePresenceAndFields(t *testing.T) {
	a, b := baselineRun(), baselineRun()
	b.Metrics = b.Metrics[:3]                       // drop the histogram
	b.Metrics[2].Max = 16                           // gauge max doubles
	b.Metrics = append(b.Metrics, telemetry.Metric{ // new metric in b only
		Name: "new.counter", Type: "counter", Value: 5,
	})
	deltas := Compare(a, b, 0.5)
	byKey := map[string]Delta{}
	for _, d := range deltas {
		byKey[d.Metric+"/"+d.Field] = d
	}
	if d, ok := byKey["tlb.miss_cost/presence"]; !ok || !math.IsInf(d.Rel, 1) {
		t.Errorf("missing-histogram presence delta = %+v (ok=%v)", d, ok)
	}
	if d, ok := byKey["new.counter/presence"]; !ok || d.B != 5 {
		t.Errorf("new-metric presence delta = %+v (ok=%v)", d, ok)
	}
	if d, ok := byKey["sweep.depth/max"]; !ok || d.Rel != 1 {
		t.Errorf("gauge max delta = %+v (ok=%v)", d, ok)
	}
	// Presence (+Inf) deltas sort before finite ones.
	if len(deltas) < 3 || !math.IsInf(deltas[0].Rel, 1) || !math.IsInf(deltas[1].Rel, 1) {
		t.Errorf("sort order = %+v", deltas)
	}
	if out := FormatDeltas(deltas); !strings.Contains(out, "sweep.depth") || !strings.Contains(out, "presence") {
		t.Errorf("FormatDeltas output missing rows:\n%s", out)
	}
}
