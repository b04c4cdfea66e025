package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

// ramp returns 1..n in reverse, so the helpers must sort.
func ramp(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i)
	}
	return s
}

func TestTailNeedsTenSamplesBeyondAndAboveP50(t *testing.T) {
	for _, tc := range []struct {
		n         int
		ok        bool
		pct, want float64
	}{
		{n: 19, ok: false}, // p47.4 is below p50
		{n: 20, ok: false}, // p50 is not a tail
		{n: 21, ok: true, pct: 1100.0 / 21, want: 11}, // 10 samples above the 11th smallest
		{n: 100, ok: true, pct: 90, want: 90},
	} {
		pct, v, ok := ramp(tc.n).tail()
		if ok != tc.ok {
			t.Errorf("n=%d: ok = %v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", tc.n, pct, v, tc.pct, tc.want)
		}
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := ramp(10).quartiles(); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := (sample{2, 1}).quartiles(); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := ramp(10).median(); m != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", m)
	}
}

func TestFailPctCountsEveryAttempt(t *testing.T) {
	var tl tally
	if tl.failPct() != 0 {
		t.Errorf("failPct before any attempt = %v, want 0", tl.failPct())
	}
	for i := 0; i < 7; i++ {
		tl.record(nil)
	}
	tl.record(errors.New("status 503"))
	if tl.attempted != 8 || tl.failed != 1 || tl.failPct() != 12.5 {
		t.Errorf("after 7 ok + 1 failure: attempted %d, failed %d, fail_pct %v; want 8, 1, 12.5",
			tl.attempted, tl.failed, tl.failPct())
	}
	rep := &report{tally: tl}
	res, _ := rep.result(nil)
	if res.Correct || res.Attempted != 8 || res.Failed != 1 {
		t.Errorf("result = %+v, want incorrect with 8 attempted and 1 failed", res)
	}
}

func TestResultRequiresEveryMetric(t *testing.T) {
	rep := &report{}
	rep.add(metric{name: "setup_s", value: 1.5, unit: "s"})
	if _, err := rep.result([]string{"setup_s", "op_p50_ms"}); err == nil {
		t.Error("result with a missing metric returned no error")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program prints %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, program prints %v", got, perLayer)
	}
}

func TestScriptIsSeededDistinctAndBalanced(t *testing.T) {
	a, b := script(defaultSeed), script(defaultSeed)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different scripts")
	}
	if reflect.DeepEqual(a, script(heldOutSeed)) {
		t.Fatal("different seeds drew the same script")
	}
	seen := map[string]bool{}
	for i, q := range a {
		n := q
		if err := n.Normalize(0); err != nil {
			t.Fatalf("question %d: %v", i, err)
		}
		if seen[n.Signature()] {
			t.Fatalf("question %d repeats an earlier one", i)
		}
		seen[n.Signature()] = true
	}
	for lo := 0; lo+scriptBlock <= len(a); lo += scriptBlock {
		big, two := 0, 0
		for _, q := range a[lo : lo+scriptBlock] {
			if q.Space == "big" {
				big++
			}
			if len(q.Workloads) == 2 {
				two++
			}
			if q.BudgetRBE < budgetLo || q.BudgetRBE >= budgetLo+1000*budgetSteps {
				t.Fatalf("budget %v outside the drawn range", q.BudgetRBE)
			}
		}
		if big != 2 || two != 3 {
			t.Fatalf("block at %d has %d big and %d two-workload questions; want 2 and 3", lo, big, two)
		}
	}
}
