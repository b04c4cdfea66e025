package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"onchip/internal/faultinject"
	"onchip/internal/search"
	"onchip/internal/telemetry"
	"onchip/internal/workload"
)

// A cancelled run must return context.Canceled, whether the context
// is cancelled before the call or mid-enumeration (from the search's
// progress callback, after the model-building sweep): memalloc relies
// on it, through runAllocation's wrapped enumeration error, to report
// an interrupt and exit 130.
func TestRunHonorsCancelledContext(t *testing.T) {
	for _, tc := range []struct {
		id     string
		midRun bool
	}{
		{"table3", false},
		{"table6", true},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{Refs: 60_000, Context: ctx}
		cancelled := false
		if tc.midRun {
			opt.SweepObserver = func(p search.Progress) {
				if !p.Done && !cancelled {
					cancelled = true
					cancel()
				}
			}
		} else {
			cancel()
			cancelled = true
		}
		_, err := Run(tc.id, opt)
		cancel()
		if !cancelled {
			t.Errorf("%s: the enumeration reported no mid-run progress to cancel from", tc.id)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run with a cancelled context returned %v, want context.Canceled", tc.id, err)
		}
	}
}

// With every sweep attempt panicking, every workload must be retried the
// configured number of times, then excluded -- and with nothing left to
// measure, the experiment fails loudly instead of ranking garbage.
func TestSweepAllWorkloadsFail(t *testing.T) {
	reg := telemetry.NewRegistry()
	opt := Options{
		Refs:          60_000,
		Metrics:       reg,
		FaultInjector: faultinject.New(faultinject.Config{Seed: 1, PanicProb: 1}),
		FaultRetries:  1,
	}
	opt.FaultInjector.Describe(reg, "faults")
	_, err := Run("table6", opt)
	if err == nil {
		t.Fatal("table6 with every workload panicking should fail")
	}
	if !strings.Contains(err.Error(), "injected panic") {
		t.Errorf("error should name the injected panics: %v", err)
	}
	n := uint64(len(workload.All()))
	counts := map[string]float64{}
	for _, m := range reg.Snapshot() {
		counts[m.Name] = m.Value
	}
	if got := counts["sweep.workloads_failed"]; got != float64(n) {
		t.Errorf("sweep.workloads_failed = %v, want %d", got, n)
	}
	if got := counts["sweep.workloads_retried"]; got != float64(n) {
		t.Errorf("sweep.workloads_retried = %v, want %d (one retry each)", got, n)
	}
	if got := counts["faults.panics"]; got != float64(2*n) {
		t.Errorf("faults.panics = %v, want %d (initial attempt + one retry each)", got, 2*n)
	}
}

// The acceptance scenario's panic half: heavy panic injection with
// enough retries still completes, with the full model intact.
func TestSweepSurvivesPanicsWithRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full design-space sweep under fault injection")
	}
	reg := telemetry.NewRegistry()
	opt := Options{
		Refs:    60_000,
		Metrics: reg,
		// Half of all attempts panic; 20 retries make a workload's
		// permanent failure (21 consecutive panics) vanishingly unlikely.
		FaultInjector: faultinject.New(faultinject.Config{Seed: 7, PanicProb: 0.5}),
		FaultRetries:  20,
	}
	opt.FaultInjector.Describe(reg, "faults")
	res, err := Run("table6", opt)
	if err != nil {
		t.Fatalf("table6 under 50%% panic injection with retries: %v", err)
	}
	if res.Text == "" {
		t.Fatal("empty ranking")
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "DEGRADED") {
			t.Errorf("no workload should be permanently lost with 20 retries: %s", n)
		}
	}
	var failed, retried, panics float64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "sweep.workloads_failed":
			failed = m.Value
		case "sweep.workloads_retried":
			retried = m.Value
		case "faults.panics":
			panics = m.Value
		}
	}
	if failed != 0 {
		t.Errorf("sweep.workloads_failed = %v, want 0", failed)
	}
	if panics == 0 || retried != panics {
		t.Errorf("faults.panics = %v, sweep.workloads_retried = %v: every injected panic should be retried", panics, retried)
	}
}
