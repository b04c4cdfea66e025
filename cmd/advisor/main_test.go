package main

import (
	"flag"
	"os"
	"testing"
)

// runArgs runs advisor on args with a fresh flag set and returns its exit
// status.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	saved, savedArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = saved, savedArgs })
	flag.CommandLine = flag.NewFlagSet("advisor", flag.ContinueOnError)
	os.Args = append([]string{"advisor"}, args...)
	return run()
}

// A negative size or duration exits 2 before the daemon listens, and 0
// (which selects the default) passes the check. The address has no
// valid port, so a run that gets past the argument checks stops at the
// listener with status 1 and never serves.
func TestNegativeFlagsExitBeforeListening(t *testing.T) {
	const noPort = "127.0.0.1:-1"
	for _, f := range []struct{ name, negative string }{
		{"workers", "-1"}, {"queue", "-1"}, {"timeout", "-1s"},
		{"drain-timeout", "-1s"}, {"cache-entries", "-1"}, {"max-refs", "-5"},
	} {
		if code := runArgs(t, "-addr", noPort, "-"+f.name, f.negative); code != 2 {
			t.Errorf("advisor -%s %s: exit %d, want 2", f.name, f.negative, code)
		}
		if code := runArgs(t, "-addr", noPort, "-"+f.name, "0"); code != 1 {
			t.Errorf("advisor -%s 0: exit %d, want 1 (refused by the listener, not by the argument check)", f.name, code)
		}
	}
}
