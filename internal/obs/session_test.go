package obs

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// startSession starts a front end over f and closes it when the test
// ends.
func startSession(t *testing.T, ctx context.Context, f Flags, b Binary) *Session {
	t.Helper()
	s, err := f.Start(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// With no flag set, a run records nothing and leaves no file behind.
func TestSessionNoFlags(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	s := startSession(t, context.Background(), Flags{}, Binary{Name: "test"})
	if s.Registry != nil || s.Spans != nil || s.Events != nil {
		t.Errorf("no flags: registry %v, spans %v, events %v; want all nil", s.Registry, s.Spans, s.Events)
	}
	if code := s.Exit(0); code != 0 {
		t.Errorf("Exit(0) = %d", code)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("no flags wrote %v", ents)
	}
}

// -metrics writes the registry's snapshot, which compare's reader reads
// back exactly, also after the run's context is cancelled; a second
// Close writes nothing.
func TestSessionMetrics(t *testing.T) {
	for _, cancelled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		if cancelled {
			cancel()
		}
		path := filepath.Join(t.TempDir(), "m.jsonl")
		s := startSession(t, ctx, Flags{Metrics: path}, Binary{Name: "test", Labels: map[string]string{"k": "v"}})
		if s.Registry == nil || s.Spans == nil || s.Events != nil {
			t.Fatalf("-metrics: registry %v, spans %v, events %v; want a registry and a tracer, no ring",
				s.Registry, s.Spans, s.Events)
		}
		s.Registry.Counter("refs", "").Add(7)
		s.Spans.Lane("main").Start("measure").End()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		cancel()
		got, err := ReadRunFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.Registry.Snapshot(); !reflect.DeepEqual(got.Metrics, want) {
			t.Errorf("cancelled=%v: read back %+v, want %+v", cancelled, got.Metrics, want)
		}
		if got.Manifest == nil || got.Manifest.Command != "test" || got.Manifest.Labels["k"] != "v" {
			t.Errorf("cancelled=%v: manifest %+v", cancelled, got.Manifest)
		}

		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
		if _, err := os.Stat(path); err == nil {
			t.Error("a second Close wrote the metrics file again")
		}
	}
}

// A -metrics file that cannot be written fails a run that otherwise
// succeeded, and leaves a failing status as it is.
func TestSessionExitOnWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "m.jsonl")
	s := startSession(t, context.Background(), Flags{Metrics: path}, Binary{Name: "test"})
	if code := s.Exit(0); code != 1 {
		t.Errorf("Exit(0) after a failed write = %d, want 1", code)
	}
	if code := s.Exit(130); code != 130 {
		t.Errorf("Exit(130) after a failed write = %d, want 130", code)
	}
}

// memalloc's -trace asks for the ring, and the ring alone.
func TestSessionRing(t *testing.T) {
	s := startSession(t, context.Background(), Flags{}, Binary{Name: "test", Ring: true})
	if s.Events == nil || s.Registry != nil {
		t.Errorf("Ring: events %v, registry %v; want a ring and no registry", s.Events, s.Registry)
	}
}
