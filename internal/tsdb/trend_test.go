package tsdb

import (
	"math"
	"testing"
	"time"

	"onchip/internal/telemetry"
)

// writeRun stores one synthetic run: a cumulative counter ending at
// total, a gauge hovering at level, a wall-clock histogram that trend
// gating skips unless asked, and an arrangement gauge (growing with
// total, like a cache-hit count) that it never fits.
func writeRun(t *testing.T, root, runID string, total, level float64) {
	t.Helper()
	a, err := Create(root, runID, telemetry.Manifest{Command: "test"}, Options{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.UnixMilli(1_000)
	for i := 0; i < 10; i++ {
		frac := float64(i+1) / 10
		a.Append(t0.Add(time.Duration(i)*time.Second), []telemetry.Metric{
			{Name: "machine.cycles", Type: "counter", Value: total * frac},
			{Name: "sweep.depth", Type: "gauge", Value: level},
			{Name: "span.sweep.model_us", Type: "histogram", Class: telemetry.WallClock, Value: level * 100},
			{Name: "tracecache.hit", Type: "counter", Class: telemetry.Arrangement, Value: total},
		})
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScalar(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, "r1", 5000, 2.5)
	db := Open(root)
	if v, err := db.Scalar("r1", "machine.cycles"); err != nil || v != 5000 {
		t.Errorf("counter scalar = %g, %v, want final value 5000", v, err)
	}
	if v, err := db.Scalar("r1", "sweep.depth"); err != nil || v != 2.5 {
		t.Errorf("gauge scalar = %g, %v, want mean 2.5", v, err)
	}
	if _, err := db.Scalar("r1", "nope"); err == nil {
		t.Error("unknown metric must error")
	}
}

// TestTrendDetectsInjectedDrift grows the counter 5% per run while the
// gauge stays flat: trend must flag exactly the drifting metric, with
// the right slope sign and a near-perfect fit.
func TestTrendDetectsInjectedDrift(t *testing.T) {
	root := t.TempDir()
	for i, id := range []string{"r1", "r2", "r3", "r4", "r5"} {
		writeRun(t, root, id, 1000*(1+0.05*float64(i)), 3.0)
	}
	trends, err := Open(root).TrendAll(TrendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) != 2 {
		t.Fatalf("trends = %+v, want cycles and depth only (no wall-clock or arrangement metric)", trends)
	}
	byName := map[string]Trend{}
	for _, tr := range trends {
		byName[tr.Metric] = tr
	}
	cyc := byName["machine.cycles"]
	if len(cyc.Runs) != 5 || cyc.Slope < 49 || cyc.Slope > 51 {
		t.Errorf("cycles trend = %+v, want slope ~50/run", cyc)
	}
	if cyc.R2 < 0.999 || !cyc.Drifting(0.01, 0.5) {
		t.Errorf("cycles drift not flagged: %+v", cyc)
	}
	depth := byName["sweep.depth"]
	if depth.Slope != 0 || depth.Drifting(0.001, 0.5) {
		t.Errorf("flat gauge flagged as drifting: %+v", depth)
	}
	// Sorted by descending relative drift.
	if trends[0].Metric != "machine.cycles" {
		t.Errorf("sort order: %+v", trends)
	}
}

func TestTrendOptions(t *testing.T) {
	root := t.TempDir()
	// Two noisy early runs, then three flat ones: LastN=3 must see no
	// drift where the full window does.
	for i, total := range []float64{500, 3000, 1000, 1000, 1000} {
		writeRun(t, root, []string{"r1", "r2", "r3", "r4", "r5"}[i], total, 1)
	}
	db := Open(root)
	all, err := db.TrendAll(TrendOptions{Match: "cycles"})
	if err != nil || len(all) != 1 {
		t.Fatalf("match filter: %+v, %v", all, err)
	}
	last3, err := db.TrendAll(TrendOptions{LastN: 3, Match: "cycles"})
	if err != nil {
		t.Fatal(err)
	}
	if tr := last3[0]; tr.Slope != 0 || len(tr.Runs) != 3 || tr.Runs[0] != "r3" {
		t.Errorf("LastN trend = %+v, want flat over r3..r5", tr)
	}
	wall, err := db.TrendAll(TrendOptions{IncludeWallClock: true})
	if err != nil {
		t.Fatal(err)
	}
	var sawWall bool
	for _, tr := range wall {
		sawWall = sawWall || tr.Metric == "span.sweep.model_us"
		if tr.Metric == "tracecache.hit" {
			t.Errorf("arrangement metric fitted: %+v", tr)
		}
	}
	if !sawWall {
		t.Error("IncludeWallClock must surface wall-clock metrics")
	}
	if _, err := Open(t.TempDir()).TrendAll(TrendOptions{}); err == nil {
		t.Error("trend over an empty store must error")
	}
}

func TestTrendFitEdgeCases(t *testing.T) {
	tr := Trend{Values: []float64{0, 0, 0}, Runs: []string{"a", "b", "c"}}
	tr.fit()
	if tr.Slope != 0 || tr.Rel != 0 || tr.R2 != 1 {
		t.Errorf("all-zero fit = %+v", tr)
	}
	tr = Trend{Values: []float64{1, 2}, Runs: []string{"a", "b"}}
	tr.fit()
	if tr.Slope != 1 || tr.Drifting(0, 0) {
		t.Errorf("two runs must fit but never count as sustained: %+v", tr)
	}
	// Rel normalizes by mean |y| (2/3 here), not the mean (0), so a
	// sign-crossing drift still gets a finite, large relative rate.
	tr = Trend{Values: []float64{-1, 0, 1}, Runs: []string{"a", "b", "c"}}
	tr.fit()
	if tr.Slope != 1 || math.Abs(tr.Rel-1.5) > 1e-12 || !tr.Drifting(1, 0.9) {
		t.Errorf("zero-mean fit = %+v", tr)
	}
}
