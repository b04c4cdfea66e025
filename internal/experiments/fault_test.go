package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"onchip/internal/osmodel"
	"onchip/internal/search"
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

// A workload sweep that fails fails the whole model. The bad spec
// fails Validate, so osmodel.NewSystem really panics on that workload's
// goroutine: the sweep must turn the panic into an error naming the
// workload and return no model, not crash or rank the rest.
func TestSweepFailureFailsTheRun(t *testing.T) {
	bad := workload.MAB()
	bad.Name = "bad_spec"
	bad.ComputeInstrs = 0
	if bad.Validate() == nil {
		t.Fatal("the bad spec passes Validate")
	}
	specs := []osmodel.WorkloadSpec{workload.MAB(), bad}
	model, err := buildMeasuredModel(osmodel.Mach, specs, search.Table5(), 60_000, Options{})
	if model != nil {
		t.Error("a failed workload sweep still returned a model")
	}
	if err == nil || !strings.Contains(err.Error(), "workload bad_spec: panic") {
		t.Fatalf("err = %v, want the bad spec's panic, named", err)
	}
}
