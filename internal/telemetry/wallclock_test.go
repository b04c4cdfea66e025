package telemetry

import "testing"

func TestIsWallClock(t *testing.T) {
	for name, want := range map[string]bool{
		"sweep.stage_seconds.model": true,
		"span.search.enumerate_us":  true,
		"sweep.workloads_done":      false,
		"search.configs_priced":     false,
	} {
		if got := IsWallClock(name); got != want {
			t.Errorf("IsWallClock(%q) = %v, want %v", name, got, want)
		}
	}
}
