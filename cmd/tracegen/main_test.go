package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// runArgs runs tracegen on args with a fresh flag set and returns its exit
// status.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	saved, savedArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = saved, savedArgs })
	flag.CommandLine = flag.NewFlagSet("tracegen", flag.ContinueOnError)
	os.Args = append([]string{"tracegen"}, args...)
	return run()
}

// Bad arguments fail with status 1 before the session starts, so no
// -metrics file is written.
func TestBadArgumentsWriteNoFile(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bogus"},
		{"-os", "Bogus"},
		{"-refs", "0"},
	} {
		metrics := filepath.Join(t.TempDir(), "m.jsonl")
		if code := runArgs(t, append([]string{"-metrics", metrics}, args...)...); code != 1 {
			t.Errorf("tracegen %v: exit %d, want 1", args, code)
		}
		if _, err := os.Stat(metrics); err == nil {
			t.Errorf("tracegen %v wrote %s", args, metrics)
		}
	}
}
