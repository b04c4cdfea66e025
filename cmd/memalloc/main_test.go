package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"onchip/internal/telemetry"
)

// runArgs runs memalloc on args with a fresh flag set and returns its
// exit status.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	saved, savedArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = saved, savedArgs })
	flag.CommandLine = flag.NewFlagSet("memalloc", flag.ContinueOnError)
	os.Args = append([]string{"memalloc"}, args...)
	return run()
}

// A bad -refs or -space is a usage error (status 2), found before the
// session starts, so no -metrics file is written.
func TestBadArgumentsWriteNoFile(t *testing.T) {
	for _, args := range [][]string{
		{"-refs", "-5", "fig4"},
		{"-space", "bogus", "fig4"},
	} {
		metrics := filepath.Join(t.TempDir(), "m.jsonl")
		if code := runArgs(t, append([]string{"-metrics", metrics}, args...)...); code != 2 {
			t.Errorf("memalloc %v: exit %d, want 2", args, code)
		}
		if _, err := os.Stat(metrics); err == nil {
			t.Errorf("memalloc %v wrote %s", args, metrics)
		}
	}
}

// compare refuses a threshold that is not a finite non-negative number:
// NaN would pass any drift, a negative one flag every metric.
func TestCompareRejectsBadThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	reg := telemetry.NewRegistry()
	reg.Counter("refs", "").Add(7)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(f, &telemetry.Manifest{Command: "test"}, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, th := range []string{"NaN", "-1", "+Inf", "-Inf"} {
		if code := runCompare([]string{"-threshold", th, path, path}); code != 2 {
			t.Errorf("compare -threshold %s: exit %d, want 2", th, code)
		}
	}
	if code := runCompare([]string{"-threshold", "0", path, path}); code != 0 {
		t.Errorf("compare -threshold 0 of a file with itself: exit %d, want 0", code)
	}
}
