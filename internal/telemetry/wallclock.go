package telemetry

import "strings"

// IsWallClock reports whether a metric name measures wall-clock time
// and is therefore expected to differ between otherwise identical runs.
// The obs run-file comparator and the tsdb trend gate both exclude
// these names from determinism checks; keeping the predicate here means
// the two gates can never drift apart.
//
// Two families qualify: any name containing "_seconds" (the
// sweep.stage_seconds.* stage timers and friends) and every span-fold
// metric published under the "span." prefix by the spans tracer, whose
// histogram names end in "_us" rather than "_seconds".
func IsWallClock(name string) bool {
	return strings.Contains(name, "_seconds") || strings.HasPrefix(name, "span.")
}
