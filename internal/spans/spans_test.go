package spans

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"onchip/internal/telemetry"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	l := tr.Lane("main")
	if l != nil {
		t.Fatalf("nil tracer returned non-nil lane")
	}
	s := l.Start("work")
	if s != nil {
		t.Fatalf("nil lane returned non-nil span")
	}
	s.End() // must not panic
	tr.SetMetrics(telemetry.NewRegistry())
	tr.ProfileSpan("x", nil)
	tr.StopProfile()
	if got := tr.Records(); got != nil {
		t.Fatalf("nil tracer Records = %v, want nil", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("nil tracer Dropped = %d, want 0", got)
	}
	if sum := tr.Summarize(); len(sum.Phases) != 0 {
		t.Fatalf("nil tracer summary not empty: %+v", sum)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer trace not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil tracer trace has %d events, want 0", len(doc.TraceEvents))
	}
}

func TestNestingRecordsTree(t *testing.T) {
	tr := New(0)
	l := tr.Lane("main")
	outer := l.Start("outer")
	inner := l.Start("inner")
	grand := l.Start("grand")
	grand.End()
	inner.End()
	sib := l.Start("sibling")
	sib.End()
	outer.End()
	top2 := l.Start("top2")
	top2.End()

	recs := tr.Records()
	if len(recs) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(recs))
	}
	parent := make(map[string]uint64)
	id := make(map[string]uint64)
	for _, r := range recs {
		parent[r.Name] = r.Parent
		id[r.Name] = r.ID
		if r.Lane != 0 {
			t.Errorf("span %s on lane %d, want 0", r.Name, r.Lane)
		}
	}
	if parent["outer"] != 0 || parent["top2"] != 0 {
		t.Errorf("top-level spans have parents: outer=%d top2=%d", parent["outer"], parent["top2"])
	}
	if parent["inner"] != id["outer"] {
		t.Errorf("inner.parent = %d, want outer id %d", parent["inner"], id["outer"])
	}
	if parent["grand"] != id["inner"] {
		t.Errorf("grand.parent = %d, want inner id %d", parent["grand"], id["inner"])
	}
	if parent["sibling"] != id["outer"] {
		t.Errorf("sibling.parent = %d, want outer id %d", parent["sibling"], id["outer"])
	}
}

func TestConcurrentLanes(t *testing.T) {
	tr := New(0)
	const lanes, perLane = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := tr.Lane("worker." + string(rune('a'+i)))
			for j := 0; j < perLane; j++ {
				s := l.Start("job")
				c := l.Start("job.child")
				c.End()
				s.End()
			}
		}(i)
	}
	wg.Wait()
	recs := tr.Records()
	if want := lanes * perLane * 2; len(recs) != want {
		t.Fatalf("recorded %d spans, want %d", len(recs), want)
	}
	seen := make(map[uint64]bool)
	perLaneSpans := make(map[int]int)
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		seen[r.ID] = true
		perLaneSpans[r.Lane]++
	}
	if len(perLaneSpans) != lanes {
		t.Fatalf("spans on %d lanes, want %d", len(perLaneSpans), lanes)
	}
	for l, n := range perLaneSpans {
		if n != perLane*2 {
			t.Errorf("lane %d spans = %d, want %d", l, n, perLane*2)
		}
	}
}

func TestDropLimit(t *testing.T) {
	tr := New(3)
	l := tr.Lane("main")
	for i := 0; i < 10; i++ {
		l.Start("s").End()
	}
	if got := len(tr.Records()); got != 3 {
		t.Fatalf("kept %d records, want 3", got)
	}
	if got := tr.Dropped(); got != 7 {
		t.Fatalf("dropped = %d, want 7", got)
	}
}

func TestSetMetricsFoldsSpans(t *testing.T) {
	tr := New(0)
	reg := telemetry.NewRegistry()
	tr.SetMetrics(reg)
	l := tr.Lane("main")
	s := l.Start("generate.measure")
	time.Sleep(time.Millisecond)
	s.End()
	l.Start("generate.measure").End()

	snap := reg.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %+v, want the one span.generate.measure_us histogram", snap)
	}
	h := snap[0]
	if h.Name != "span.generate.measure_us" || h.Type != "histogram" {
		t.Fatalf("fold = %+v, want histogram span.generate.measure_us", h)
	}
	if h.Count != 2 || h.Sum < 1000 {
		t.Errorf("fold count/sum = %d/%d µs, want 2 spans totalling at least the 1 ms slept", h.Count, h.Sum)
	}
	if h.Class != telemetry.WallClock {
		t.Errorf("fold class = %v, want wallclock so the determinism gates skip it", h.Class)
	}
}

func TestSummarySelfTime(t *testing.T) {
	tr := New(0)
	l := tr.Lane("main")
	outer := l.Start("outer")
	inner := l.Start("inner")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()

	dur := make(map[string]time.Duration)
	for _, r := range tr.Records() {
		dur[r.Name] = r.Dur
	}
	self := make(map[string]float64)
	for _, p := range tr.Summarize().Phases {
		self[p.Name] = p.SelfSeconds
	}
	if len(self) != 2 {
		t.Fatalf("summary phases = %v, want outer and inner", self)
	}
	// outer's self time excludes inner; inner has no children.
	if want := (dur["outer"] - dur["inner"]).Seconds(); self["outer"] != want {
		t.Errorf("outer self %.9f, want %.9f (its total less inner's)", self["outer"], want)
	}
	if want := dur["inner"].Seconds(); self["inner"] != want || want <= 0 {
		t.Errorf("inner self %.9f, want its total %.9f > 0", self["inner"], want)
	}
}

// chromeEvent mirrors the fields the golden/schema checks need.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	TS   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

func TestChromeTraceSchema(t *testing.T) {
	tr := New(0)
	l := tr.Lane("main")
	s := l.Start("phase")
	l.Start("phase.child").End()
	s.End()
	w := tr.Lane("worker.0")
	w.Start("job").End()
	openSpan := l.Start("still-open")
	defer openSpan.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var meta, complete, begin int
	for _, ev := range doc.TraceEvents {
		if ev.PID != 1 {
			t.Errorf("event pid = %d, want 1", ev.PID)
		}
		if ev.TID < 1 {
			t.Errorf("event tid = %d, want >= 1", ev.TID)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.TS == nil || ev.Dur == nil {
				t.Errorf("X event %q missing ts/dur", ev.Name)
			}
			if ev.Cat != "span" {
				t.Errorf("X event %q cat = %q, want span", ev.Name, ev.Cat)
			}
		case "B":
			begin++
			if ev.Name != "still-open" {
				t.Errorf("B event name = %q, want still-open", ev.Name)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta != 4 { // 2 lanes x (thread_name + thread_sort_index)
		t.Errorf("metadata events = %d, want 4", meta)
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if begin != 1 {
		t.Errorf("begin events = %d, want 1", begin)
	}
}

func TestProfileSpanBracketsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "span.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(0)
	tr.ProfileSpan("hot", f)
	l := tr.Lane("main")
	l.Start("cold").End() // must not trigger the profile
	s := l.Start("hot")
	busy := 0
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
		busy++
	}
	_ = busy
	s.End()
	l.Start("hot").End() // second instance must not re-arm
	tr.StopProfile()     // idempotent after the bracket closed

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatalf("CPU profile is empty")
	}
}

func TestStopProfileClosesInterruptedBracket(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "span.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(0)
	tr.ProfileSpan("hot", f)
	l := tr.Lane("main")
	_ = l.Start("hot") // never ended: simulates an interrupted run
	tr.StopProfile()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatalf("interrupted CPU profile is empty")
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	tr := New(0)
	tr.Lane("main").Start("work").End()
	if err := WriteFile(path, tr); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("written trace is not valid JSON:\n%s", data)
	}
	if !strings.Contains(string(data), `"work"`) {
		t.Fatalf("trace missing span name:\n%s", data)
	}
}

func TestSanitizeProfileName(t *testing.T) {
	for in, want := range map[string]string{
		"sweep.job":      "sweep.job",
		"workload/video": "workload_video",
		"a b:c":          "a_b_c",
		"ok_name-1.2":    "ok_name-1.2",
	} {
		if got := SanitizeProfileName(in); got != want {
			t.Errorf("SanitizeProfileName(%q) = %q, want %q", in, got, want)
		}
	}
}
