package spans

import (
	"context"
	"fmt"
	"os"

	"onchip/internal/lifecycle"
	"onchip/internal/telemetry"
)

// Setup is the shared span wiring of the binaries: it builds the
// tracer the -spans / -prof-span flags or the run's metrics ask for and
// arms a shutdown drain through the lifecycle package, so both a SIGINT
// and a normal exit stop any bracketed CPU profile and persist the
// Chrome trace.
//
// spansFile, when non-empty, is where the drain writes the trace-event
// JSON. profSpan, when non-empty, names the span that brackets a CPU
// profile into profOut (default "span_<name>.pprof"); if the span never
// runs, the empty profile file is removed at drain time. A non-nil reg
// (the run collects metrics) forces a tracer even without the file
// flags and folds every span into it (SetMetrics), so span timings
// reach -metrics, run files, /metrics and /spans by one path.
//
// The returned drain is idempotent and must be deferred by the caller;
// it also runs automatically when ctx is cancelled. With no flag set
// and a nil reg, the tracer is nil (recording nothing) and the drain a
// no-op.
func Setup(ctx context.Context, name, spansFile, profSpan, profOut string, reg *telemetry.Registry) (*Tracer, func(), error) {
	if spansFile == "" && profSpan == "" && reg == nil {
		return nil, func() {}, nil
	}
	t := New(0)
	t.SetMetrics(reg)
	if profSpan != "" {
		if profOut == "" {
			profOut = "span_" + SanitizeProfileName(profSpan) + ".pprof"
		}
		f, err := os.Create(profOut)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: -prof-span-out: %w", name, err)
		}
		t.ProfileSpan(profSpan, f)
	}
	drain := lifecycle.OnShutdown(ctx, name+": spans", nil, func() error {
		t.StopProfile()
		if profSpan != "" {
			// A bracket that never triggered leaves a zero-byte profile;
			// remove it rather than hand the user an unloadable file.
			if st, err := os.Stat(profOut); err == nil && st.Size() == 0 {
				os.Remove(profOut)
			}
		}
		if spansFile == "" {
			return nil
		}
		if err := WriteFile(spansFile, t); err != nil {
			return fmt.Errorf("writing %s: %w", spansFile, err)
		}
		return nil
	})
	return t, drain, nil
}
