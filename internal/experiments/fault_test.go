package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/telemetry"
	"onchip/internal/trace"
	"onchip/internal/tracecache"
	"onchip/internal/workload"
)

// A cancelled run must return context.Canceled, whether the context
// is cancelled before the call, mid-sweep (from table6's first "sweep:
// ... done" progress line, once one workload is swept, so the rest
// claim none) or between stall suites (from table4's first progress
// line, printed once the Ultrix suite is measured, so the Mach suite
// claims no row): memalloc relies on it, through the experiment's
// wrapped error, to report an interrupt and exit 130.
func TestRunHonorsCancelledContext(t *testing.T) {
	for _, tc := range []struct {
		id string
		// arm installs a hook that cancels mid-run; nil cancels before
		// the call.
		arm func(opt *Options, cancel func())
	}{
		{"table3", nil},
		{"table6", func(opt *Options, cancel func()) {
			opt.Progress = progressHook(func(line []byte) {
				if bytes.HasPrefix(line, []byte("sweep:")) && bytes.Contains(line, []byte(" done (")) {
					cancel()
				}
			})
		}},
		{"table4", func(opt *Options, cancel func()) {
			opt.Progress = progressHook(func(line []byte) {
				if bytes.HasPrefix(line, []byte("measure:")) {
					cancel()
				}
			})
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := Options{Refs: 60_000, Context: ctx}
		cancelled := false
		cancelOnce := func() {
			if !cancelled {
				cancelled = true
				cancel()
			}
		}
		if tc.arm != nil {
			tc.arm(&opt, cancelOnce)
		} else {
			cancelOnce()
		}
		_, err := Run(tc.id, opt)
		cancel()
		if !cancelled {
			t.Errorf("%s: the run reported no mid-run progress to cancel from", tc.id)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run with a cancelled context returned %v, want context.Canceled", tc.id, err)
		}
	}
}

// pollCancel is a context that reads as cancelled from its n-th Err
// poll on: Run polls once before the experiment, and the row runner
// and the suite sweep once before each claim.
type pollCancel struct {
	context.Context
	mu       sync.Mutex
	polls, n int
}

func (c *pollCancel) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// Every experiment that runs the timing machine stops between rows: a
// context that turns cancelled after the first row is claimed stops it
// with context.Canceled, instead of running its remaining rows.
func TestTimingMachineExperimentsStopBetweenRows(t *testing.T) {
	for _, id := range []string{"table3", "table4", "fig3", "ext-l2", "ext-prefetch", "ext-wbuf", "ext-ool",
		"ext-servers", "ext-multi", "ext-multiapi", "ext-unified", "ext-wpolicy"} {
		ctx := &pollCancel{Context: context.Background(), n: 3}
		if _, err := Run(id, Options{Refs: 20_000, Context: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run returned %v once cancelled after its first row, want context.Canceled", id, err)
		}
	}
}

// Every experiment that prices a stream through the suite sweep stops
// between workloads: a context that turns cancelled when the sweep
// first claims a workload stops it with context.Canceled, instead of
// sweeping the suite.
func TestSweepExperimentsStopBetweenWorkloads(t *testing.T) {
	for _, id := range []string{"fig7", "fig8", "fig9", "fig9d", "fig10", "sampling", "table6", "table7", "ext-atime"} {
		ctx := &pollCancel{Context: context.Background(), n: 2}
		if _, err := Run(id, Options{Refs: 20_000, Context: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run returned %v once cancelled at its first workload, want context.Canceled", id, err)
		}
	}
}

// progressHook is an Options.Progress writer that hands each progress
// line to a function.
type progressHook func(line []byte)

func (h progressHook) Write(p []byte) (int, error) {
	h(p)
	return len(p), nil
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

// A cached stream that decodes cleanly but lacks the sweep's three
// phase segments is rejected like a decode failure: counted once in
// tracecache.corrupt, evicted, re-recorded by the regeneration with
// the sweep's layout, and the table comes out as an uncached run's.
func TestLayoutMismatchCountsAsCorrupt(t *testing.T) {
	const refs = 60_000
	uncached, err := Run("table6", Options{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}

	cache, err := tracecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.IOzone()
	key := sweepTraceKey(osmodel.Mach, spec, refs)
	w, err := cache.NewWriter(key)
	if err != nil {
		t.Fatal(err)
	}
	osmodel.NewSystem(osmodel.Mach, spec).Generate(refs, w) // one segment, no phase marks
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	cache.Describe(reg)
	var log strings.Builder
	cache.SetLogWriter(&log)
	cached, err := Run("table6", Options{Refs: refs, TraceCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Text != uncached.Text {
		t.Error("table6 over the mismatched entry differs from the uncached run")
	}
	corrupt := -1.0
	for _, m := range reg.Snapshot() {
		if m.Name == "tracecache.corrupt" {
			corrupt = m.Value
		}
	}
	if corrupt != 1 {
		t.Errorf("tracecache.corrupt = %g, want 1", corrupt)
	}
	if !strings.Contains(log.String(), "evicted corrupt entry") {
		t.Errorf("no eviction logged:\n%s", log.String())
	}

	entry := cache.OpenEntry(key)
	if entry == nil {
		t.Fatal("the regeneration did not re-record the entry")
	}
	defer entry.Close()
	for i, wantLast := range []bool{false, false, true} {
		_, last, err := entry.ReplaySegment(context.Background(), trace.Discard)
		if err != nil || last != wantLast {
			t.Fatalf("re-recorded segment %d: last=%v err=%v, want last=%v", i+1, last, err, wantLast)
		}
	}
}
