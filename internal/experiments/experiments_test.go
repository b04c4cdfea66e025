package experiments

import (
	"strings"
	"testing"
)

// small keeps test runtimes down; the default sizes are for cmd/memalloc
// and the benchmarks.
var small = Options{Refs: 120_000}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ext-atime", "ext-l2", "ext-multi", "ext-multiapi", "ext-ool", "ext-prefetch", "ext-servers", "ext-unified", "ext-wbuf", "ext-wpolicy",
		"fig10", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig9d",
		"paths", "sampling", "table1", "table3", "table4", "table6", "table7"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, id := range got {
		if Title(id) == "" {
			t.Errorf("%s has no title", id)
		}
	}
	if Title("nope") != "" {
		t.Error("unknown id has a title")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", small); err == nil {
		t.Error("unknown id accepted")
	}
}

// Every experiment refuses a negative reference count and an unknown
// design-space preset, not just the ones that read them.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, opt := range []Options{{Refs: -5}, {SpacePreset: "bogus"}} {
		if _, err := Run("fig4", opt); err == nil {
			t.Errorf("fig4 with %+v: no error", opt)
		}
	}
}

func TestCostExperiments(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig6", "table1", "paths"} {
		res, err := Run(id, small)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id || res.Text == "" {
			t.Errorf("%s: empty result", id)
		}
	}
}

func TestFig4ShowsCrossover(t *testing.T) {
	res, err := Run("fig4", small)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "fully-assoc") {
		t.Error("fig4 missing the fully-associative series")
	}
}

func TestTable1ListsAllProcessors(t *testing.T) {
	res, err := Run("table1", small)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Intel i486DX", "MIPS R4000", "PowerPC 601", "MicroSPARC"} {
		if !strings.Contains(res.Text, name) {
			t.Errorf("table1 missing %s", name)
		}
	}
	if len(Survey()) != 13 {
		t.Errorf("survey has %d rows, want 13 (Table 1)", len(Survey()))
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := Run("table3", small)
	if err != nil {
		t.Fatal(err)
	}
	for _, os := range []string{"None", "Ultrix", "Mach"} {
		if !strings.Contains(res.Text, os) {
			t.Errorf("table3 missing the %s row", os)
		}
	}
}

func TestFig7Monotone(t *testing.T) {
	res, err := Run("fig7", small)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "512") || !strings.Contains(res.Text, "Other") {
		t.Errorf("fig7 output incomplete:\n%s", res.Text)
	}
}

func TestFig8HasAssociativitySeries(t *testing.T) {
	res, err := Run("fig8", small)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"1-way", "2-way", "4-way", "8-way"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("fig8 missing %s series", s)
		}
	}
}

func TestFig9BothOSes(t *testing.T) {
	res, err := Run("fig9", Options{Refs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Ultrix") || !strings.Contains(res.Text, "Mach") {
		t.Error("fig9 must cover both operating systems")
	}
}

// The headline experiments are exercised end-to-end at reduced scale in
// TestTable6Headline (slow) and by the benchmarks at full scale.
func TestTable6Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full design-space sweep")
	}
	res, err := Run("table6", Options{Refs: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "512-entry") {
		t.Errorf("table6 top allocations lack a 512-entry TLB:\n%s", res.Text)
	}
}

func TestSamplingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full-trace reference runs")
	}
	res, err := Run("sampling", Options{Refs: 1_200_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "mpeg_play") {
		t.Error("sampling experiment missing workloads")
	}
}

// Experiments are seeded and must be bit-for-bit deterministic.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"table3", "fig8"} {
		a, err := Run(id, Options{Refs: 80_000})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, Options{Refs: 80_000})
		if err != nil {
			t.Fatal(err)
		}
		if a.Text != b.Text {
			t.Errorf("%s: two runs differ", id)
		}
	}
}
