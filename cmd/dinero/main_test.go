package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"onchip/internal/trace"
)

// runArgs runs dinero on args with a fresh flag set and returns its exit
// status.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	saved, savedArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = saved, savedArgs })
	flag.CommandLine = flag.NewFlagSet("dinero", flag.ContinueOnError)
	os.Args = append([]string{"dinero"}, args...)
	return run()
}

// writeTrace writes a short valid trace: a loop of user instruction
// fetches and loads.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.octr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 256; i++ {
		w.Ref(trace.Ref{Addr: 0x400000 + 4*(i%64), Kind: trace.IFetch})
		w.Ref(trace.Ref{Addr: 0x10000000 + 16*(i%32), Kind: trace.Load})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Bad arguments exit 2 before the session starts, so no -metrics file is
// written; the same trace with good arguments replays and writes one.
func TestBadArgumentsWriteNoFile(t *testing.T) {
	tr := writeTrace(t)
	for _, args := range [][]string{
		{"-i", tr, "-isize", "1000"}, // not a whole number of lines
		{"-i", tr, "-tlb", "0"},
		{"-i", tr, "-wb", "0"},
		{}, // no -i
	} {
		metrics := filepath.Join(t.TempDir(), "m.jsonl")
		if code := runArgs(t, append([]string{"-metrics", metrics}, args...)...); code != 2 {
			t.Errorf("dinero %v: exit %d, want 2", args, code)
		}
		if _, err := os.Stat(metrics); err == nil {
			t.Errorf("dinero %v wrote %s", args, metrics)
		}
	}

	stdout := os.Stdout
	t.Cleanup(func() { os.Stdout = stdout })
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout = devNull
	metrics := filepath.Join(t.TempDir(), "m.jsonl")
	if code := runArgs(t, "-metrics", metrics, "-i", tr); code != 0 {
		t.Fatalf("dinero -i %s: exit %d, want 0", tr, code)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Fatalf("good arguments wrote no -metrics file: %v", err)
	}
}
