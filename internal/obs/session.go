package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"onchip/internal/lifecycle"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
)

// Flags are the observability flags every simulation binary shares.
// All are off by default, and then a run records nothing.
type Flags struct {
	Metrics     string // -metrics FILE: JSONL manifest and metric snapshot at exit
	Spans       string // -spans FILE: Chrome trace-event JSON at exit
	ProfSpan    string // -prof-span NAME: CPU profile of the first span so named
	ProfSpanOut string // -prof-span-out FILE: where -prof-span writes
}

// Register defines the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Metrics, "metrics", "", "write the run manifest and every metric (span timings included) as JSONL to this file; \"memalloc compare\" diffs two")
	fs.StringVar(&f.Spans, "spans", "", "write the run's execution spans as Chrome trace-event JSON to this file (load in Perfetto or chrome://tracing)")
	fs.StringVar(&f.ProfSpan, "prof-span", "", "capture a CPU profile bracketed by the first span with this name (the span names of a -spans trace)")
	fs.StringVar(&f.ProfSpanOut, "prof-span-out", "", "CPU profile output path for -prof-span (default span_<name>.pprof)")
}

// Binary describes the binary a session records for.
type Binary struct {
	// Name prefixes the session's messages and is the manifest's
	// command.
	Name   string
	Labels map[string]string // manifest labels
	// Ring asks for the stall-event ring (memalloc's -trace dumps it).
	Ring bool
}

// Session is one run's observability, built from the shared flags by
// Start: what the run records into. Close writes the run's files.
type Session struct {
	// Registry collects the run's metrics when -metrics is set; nil
	// otherwise.
	Registry *telemetry.Registry
	// Spans records execution spans when -spans or -prof-span is set
	// or a registry exists, folding them into the registry; nil
	// otherwise.
	Spans *spans.Tracer
	// Events is the stall-event ring Binary asked for, or nil.
	Events *telemetry.Tracer

	name, metricsFile string
	manifest          *telemetry.Manifest
	drainSpans        func()
	closeOnce         sync.Once
	closeErr          error
}

// Start builds what the flags ask for. The span drain -- stop a
// -prof-span profile, write -spans -- also runs as soon as ctx is
// cancelled, so an interrupted run's trace lands even if the main path
// is slow to unwind. The caller defers Close and calls it (or Exit)
// before os.Exit.
func (f *Flags) Start(ctx context.Context, b Binary) (*Session, error) {
	s := &Session{
		manifest: &telemetry.Manifest{
			Command:   b.Name,
			Args:      os.Args[1:],
			Start:     time.Now().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			Labels:    b.Labels,
		},
		name:        b.Name,
		metricsFile: f.Metrics,
		drainSpans:  func() {},
	}
	if f.Metrics != "" {
		s.Registry = telemetry.NewRegistry()
	}
	if b.Ring {
		s.Events = telemetry.NewTracer(telemetry.DefaultTracerDepth)
	}
	if f.Spans != "" || f.ProfSpan != "" || s.Registry != nil {
		if err := s.startSpans(ctx, f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// startSpans builds the span tracer and arms its drain.
func (s *Session) startSpans(ctx context.Context, f *Flags) error {
	t := spans.New(0)
	t.SetMetrics(s.Registry)
	profOut := f.ProfSpanOut
	if f.ProfSpan != "" {
		if profOut == "" {
			profOut = "span_" + spans.SanitizeProfileName(f.ProfSpan) + ".pprof"
		}
		pf, err := os.Create(profOut)
		if err != nil {
			return fmt.Errorf("%s: -prof-span-out: %w", s.name, err)
		}
		t.ProfileSpan(f.ProfSpan, pf)
	}
	s.Spans = t
	s.drainSpans = lifecycle.OnShutdown(ctx, s.name+": spans", nil, func() error {
		t.StopProfile()
		if f.ProfSpan != "" {
			// A bracket that never triggered leaves a zero-byte profile;
			// remove it rather than hand the user an unloadable file.
			if st, err := os.Stat(profOut); err == nil && st.Size() == 0 {
				os.Remove(profOut)
			}
		}
		if f.Spans == "" {
			return nil
		}
		if err := spans.WriteFile(f.Spans, t); err != nil {
			return fmt.Errorf("writing %s: %w", f.Spans, err)
		}
		return nil
	})
	return nil
}

// Close ends the session: it writes -metrics and drains the spans.
// Only the first call acts; every call returns the -metrics write
// error, which Close also reports on stderr.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		if s.metricsFile != "" {
			if s.closeErr = writeMetrics(s.metricsFile, s.manifest, s.Registry.Snapshot()); s.closeErr != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, s.closeErr)
			}
		}
		s.drainSpans()
	})
	return s.closeErr
}

// Exit closes the session and returns the binary's exit status: code,
// or 1 when the run succeeded but its -metrics file was not written.
func (s *Session) Exit(code int) int {
	if s.Close() != nil && code == 0 {
		return 1
	}
	return code
}

func writeMetrics(path string, m *telemetry.Manifest, metrics []telemetry.Metric) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, m, metrics); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
