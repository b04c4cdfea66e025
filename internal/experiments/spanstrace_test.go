package experiments

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"onchip/internal/area"
	"onchip/internal/osmodel"
	"onchip/internal/spans"
	"onchip/internal/workload"
)

// chromeEvent mirrors the Chrome trace-event schema that Perfetto and
// chrome://tracing load; the golden test decodes the written trace back
// through it.
type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
	} `json:"args"`
}

// TestSweepChromeTraceGolden runs a fixed two-workload sweep through
// the traced engine and pins the exported Chrome trace: valid JSON in
// the trace-event schema, no dangling open spans, the exact expected
// set of (lane, span-name) pairs, and correct parentage (phases nest
// under their workload span; worker jobs are top-level on their lane).
// Durations and counts vary run to run; the structure must not.
func TestSweepChromeTraceGolden(t *testing.T) {
	tr := spans.New(0)
	// Two line sizes over four distinct (sets, line-size) groups: two
	// I-stream LineSweeps and two D-stream DataLines, four units over a
	// four-worker pool. Every batch hands each of the four workers a
	// job, so every worker lane records spans.
	cacheCfgs := []area.CacheConfig{
		{CapacityBytes: 2 << 10, LineWords: 4, Assoc: 1},
		{CapacityBytes: 2 << 10, LineWords: 16, Assoc: 2},
		{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 2},
		{CapacityBytes: 8 << 10, LineWords: 16, Assoc: 1},
	}
	for _, spec := range []osmodel.WorkloadSpec{workload.MPEGPlay(), workload.MAB()} {
		lane := tr.Lane("workload/" + spec.Name)
		wl := lane.Start("sweep.workload")
		pool := newGroupPool(4, tr, "sweep/"+spec.Name)
		engine := newSweepEngine(cacheCfgs, cacheCfgs, pool)
		sys := osmodel.NewSystem(osmodel.Mach, spec)
		warm := lane.Start("generate.warmup")
		sys.Generate(5_000, engine)
		warm.End()
		meas := lane.Start("generate.measure")
		sys.Generate(15_000, engine)
		meas.End()
		pool.close()
		wl.End()
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}

	laneName := map[int]string{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			laneName[e.Tid] = e.Args.Name
		}
	}

	pairSet := map[string]bool{}
	type spanInfo struct {
		name   string
		tid    int
		parent uint64
	}
	byID := map[uint64]spanInfo{}
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
		case "X":
			if e.Pid != 1 || e.Cat != "span" || e.Ts < 0 || e.Dur < 0 || e.Args.ID == 0 {
				t.Errorf("malformed X event: %+v", e)
			}
			if laneName[e.Tid] == "" {
				t.Errorf("span %q on tid %d with no thread_name metadata", e.Name, e.Tid)
			}
			pairSet[laneName[e.Tid]+"|"+e.Name] = true
			byID[e.Args.ID] = spanInfo{name: e.Name, tid: e.Tid, parent: e.Args.Parent}
		case "B":
			t.Errorf("open span left in completed trace: %+v", e)
		default:
			t.Errorf("unknown event phase %q: %+v", e.Ph, e)
		}
	}

	var pairs []string
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	sort.Strings(pairs)
	golden := []string{
		"sweep/mab.worker.0|sweep.job",
		"sweep/mab.worker.1|sweep.job",
		"sweep/mab.worker.2|sweep.job",
		"sweep/mab.worker.3|sweep.job",
		"sweep/mpeg_play.worker.0|sweep.job",
		"sweep/mpeg_play.worker.1|sweep.job",
		"sweep/mpeg_play.worker.2|sweep.job",
		"sweep/mpeg_play.worker.3|sweep.job",
		"workload/mab|generate.measure",
		"workload/mab|generate.warmup",
		"workload/mab|sweep.workload",
		"workload/mpeg_play|generate.measure",
		"workload/mpeg_play|generate.warmup",
		"workload/mpeg_play|sweep.workload",
	}
	if len(pairs) != len(golden) {
		t.Fatalf("lane|span pairs:\n got %v\nwant %v", pairs, golden)
	}
	for i := range golden {
		if pairs[i] != golden[i] {
			t.Fatalf("lane|span pairs:\n got %v\nwant %v", pairs, golden)
		}
	}

	// Parentage: generation phases nest under their lane's
	// sweep.workload span; workload and worker-job spans are top-level.
	for id, s := range byID {
		switch s.name {
		case "generate.warmup", "generate.measure":
			p, ok := byID[s.parent]
			if !ok || p.name != "sweep.workload" || p.tid != s.tid {
				t.Errorf("span %d (%s): parent %+v, want sweep.workload on same lane", id, s.name, p)
			}
		case "sweep.workload", "sweep.job":
			if s.parent != 0 {
				t.Errorf("span %d (%s): parent %d, want top-level", id, s.name, s.parent)
			}
		}
	}
}
