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
// contract in one place: an uncached run, a cold trace-cache run and a
// warm one must agree on every result-class metric at a zero threshold
// while their arrangement (cache misses and hits) and their timing
// (which spans ran) really differ -- so it is the classes the metrics
// declare, not a list of names, that keeps those differences out of
// the comparison.
func TestCompareCrossesArrangementAndTiming(t *testing.T) {
	cache, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(tc *tracecache.Cache) obs.Run {
		t.Helper()
		reg := telemetry.NewRegistry()
		tr := spans.New(0)
		tr.SetMetrics(reg)
		opt := Options{Refs: 60_000, Metrics: reg, Spans: tr}
		if tc != nil {
			tc.Describe(reg)
			opt.TraceCache = tc
		}
		if _, err := Run("table6", opt); err != nil {
			t.Fatal(err)
		}
		return obs.Run{Metrics: reg.Snapshot()}
	}
	uncached, cold, warm := run(nil), run(cache), run(cache)

	for _, p := range []struct {
		name string
		a, b obs.Run
	}{{"uncached vs cold cache", uncached, cold}, {"cold vs warm cache", cold, warm}} {
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
	if a, b := value(uncached, "tracecache.miss"), value(cold, "tracecache.miss"); a == b {
		t.Errorf("tracecache.miss = %g uncached and cold; the comparison crossed no arrangement change", a)
	}
	if a, b := value(cold, "tracecache.hit"), value(warm, "tracecache.hit"); a == b {
		t.Errorf("tracecache.hit = %g cold and warm; the warm run never replayed", a)
	}
	if a, b := spanNames(cold), spanNames(warm); a == "" || a == b {
		t.Errorf("cold and warm runs folded the same spans (%q); the comparison crossed no timing change", a)
	}
}
