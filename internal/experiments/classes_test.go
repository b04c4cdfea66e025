package experiments

import (
	"sort"
	"strings"
	"testing"

	"onchip/internal/obs"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

// TestCompareCrossesArrangementAndTiming is the sweep's determinism
// contract in one place: a serial and a sharded run, and a cold and a
// warm trace-cache run, must agree on every result-class metric at a
// zero threshold while their arrangement (shard count, cache hits) and
// their timing (which spans ran) really differ -- so it is the classes
// the metrics declare, not a list of names, that keeps those
// differences out of the comparison.
func TestCompareCrossesArrangementAndTiming(t *testing.T) {
	cache, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int, tc *tracecache.Cache) obs.Run {
		t.Helper()
		reg := telemetry.NewRegistry()
		tr := spans.New(0)
		tr.SetMetrics(reg)
		opt := Options{Refs: 60_000, Shards: shards, Metrics: reg, Spans: tr}
		if tc != nil {
			tc.Describe(reg)
			opt.TraceCache = tc
		}
		if _, err := Run("table6", opt); err != nil {
			t.Fatal(err)
		}
		return obs.Run{Metrics: reg.Snapshot()}
	}
	serial, cold, warm := run(1, nil), run(8, cache), run(8, cache)

	for _, p := range []struct {
		name string
		a, b obs.Run
	}{{"serial vs sharded", serial, cold}, {"cold vs warm cache", cold, warm}} {
		if d := obs.Compare(p.a, p.b, 0); len(d) != 0 {
			t.Errorf("%s: compare flags\n%s", p.name, obs.FormatDeltas(d))
		}
	}

	value := func(r obs.Run, name string) float64 {
		for _, m := range r.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		return -1
	}
	spanNames := func(r obs.Run) string {
		var names []string
		for _, m := range r.Metrics {
			if strings.HasPrefix(m.Name, "span.") && strings.HasSuffix(m.Name, "_us") {
				names = append(names, m.Name)
			}
		}
		sort.Strings(names)
		return strings.Join(names, " ")
	}
	if a, b := value(serial, "sweep.shards"), value(cold, "sweep.shards"); a == b {
		t.Errorf("sweep.shards = %g in both serial and sharded runs; the comparison crossed no arrangement change", a)
	}
	if a, b := value(cold, "tracecache.hit"), value(warm, "tracecache.hit"); a == b {
		t.Errorf("tracecache.hit = %g cold and warm; the warm run never replayed", a)
	}
	if a, b := spanNames(cold), spanNames(warm); a == "" || a == b {
		t.Errorf("cold and warm runs folded the same spans (%q); the comparison crossed no timing change", a)
	}
}
