package obs

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"onchip/internal/telemetry"
)

func baselineRun() Run {
	return Run{
		Manifest: &telemetry.Manifest{Command: "memalloc"},
		Metrics: []telemetry.Metric{
			{Name: "machine.cycles", Type: "counter", Value: 1_500_000},
			{Name: "machine.instructions", Type: "counter", Value: 1_000_000},
			{Name: "sweep.depth", Type: "gauge", Value: 2, Max: 8},
			{Name: "tlb.miss_cost", Type: "histogram", Value: 20, Count: 100, Sum: 2000},
		},
	}
}

// writeRun writes r as -metrics JSONL, the one snapshot format.
func writeRun(t testing.TB, r Run) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, r.Manifest, r.Metrics); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// A -metrics file reads back as the run that wrote it, with or without
// its manifest line.
func TestRunFileRoundTrip(t *testing.T) {
	want := baselineRun()
	want.Metrics = append(want.Metrics, telemetry.Metric{
		Name: "span.sweep.model_us", Type: "histogram", Class: telemetry.WallClock, Value: 4310, Count: 1, Sum: 4310,
		Buckets: []telemetry.Bucket{{Lo: 4096, Hi: 8191, Count: 1}},
	})
	for _, man := range []*telemetry.Manifest{want.Manifest, nil} {
		want.Manifest = man
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, writeRun(t, want), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRunFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// The reader refuses what is not a -metrics file, naming the file and
// the line.
func TestReadRunFileErrors(t *testing.T) {
	if _, err := ReadRunFile(filepath.Join(t.TempDir(), "missing.jsonl")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want not-exist", err)
	}
	manifest := `{"type":"manifest","command":"memalloc"}`
	metric := `{"name":"machine.cycles","type":"counter","value":10}`
	for _, tc := range []struct{ name, body, want string }{
		{"unparsable", manifest + "\n{not json\n", "line 2: "},
		{"second manifest", manifest + "\n" + metric + "\n" + manifest + "\n", "line 3: a manifest"},
		{"unknown type", metric + "\n" + `{"name":"x","type":"summary","value":1}` + "\n", `line 2: unknown type "summary"`},
		{"unknown class", `{"name":"x","type":"counter","class":"bogus","value":1}` + "\n", "line 1: "},
		{"old run file", "{\n  \"schema\": 2,\n  \"metrics\": []\n}\n", "line 1: an indented run file"},
		{"empty", "", "empty run file"},
		{"blank lines", "\n  \n\t\n", "empty run file"},
	} {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadRunFile(path)
		if err == nil || !strings.HasPrefix(err.Error(), path+": "+tc.want) {
			t.Errorf("%s: err = %v, want prefix %q", tc.name, err, path+": "+tc.want)
		}
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

// FuzzReadRunFile feeds arbitrary bytes to the -metrics reader: it
// must either refuse them or yield a Run that WriteJSONL writes and the
// reader reads back equal, so a file `memalloc compare` accepted means
// what it says.
func FuzzReadRunFile(f *testing.F) {
	r := baselineRun()
	r.Metrics = append(r.Metrics, telemetry.Metric{Name: "sweep.workers", Type: "gauge", Class: telemetry.Arrangement, Value: 8, Max: 8})
	f.Add(writeRun(f, Run{Manifest: r.Manifest}))
	f.Add(writeRun(f, Run{Metrics: r.Metrics}))
	f.Add([]byte("{\n  \"schema\": 2,\n  \"manifest\": {\n    \"command\": \"memalloc history\"\n  },\n  \"metrics\": []\n}\n"))
	f.Add(writeRun(f, r))
	f.Add([]byte(""))
	f.Add([]byte("\n \n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseRun(data)
		if err != nil {
			return
		}
		back, err := parseRun(writeRun(t, got))
		if err != nil {
			t.Fatalf("written run does not read back: %v", err)
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
