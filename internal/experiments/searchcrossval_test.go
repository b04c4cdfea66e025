package experiments

import (
	"testing"

	"onchip/internal/area"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/search/missmodel"
	"onchip/internal/workload"
)

// TestSearchCrossValidation is the gating oracle of the production
// search (make crossval-search, run in CI): on the paper's Table 5 grid
// with a MEASURED model -- real stack-simulation sweeps, both the Table
// 6 (unrestricted) and Table 7 (assoc <= 2) settings -- the pruned
// strategy's top-10 must be byte-identical to the exhaustive ranking,
// and search.Rank's top-10, feasible count and 3/4 n tail row must
// equal the materialized ranking's.
func TestSearchCrossValidation(t *testing.T) {
	const refs = 150_000
	for _, tc := range []struct {
		name     string
		maxAssoc int
	}{
		{"table6", 0},
		{"table7", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			space := search.Table5()
			space.MaxCacheAssoc = tc.maxAssoc
			model, err := buildMeasuredModel(osmodel.Mach, workload.All(), space, refs, Options{})
			if err != nil {
				t.Fatalf("model-building sweep: %v", err)
			}
			ex, err := search.EnumerateE(space, area.Default(), area.BudgetRBE, model)
			if err != nil {
				t.Fatal(err)
			}
			var st search.PruneStats
			pr, err := search.EnumerateE(space, area.Default(), area.BudgetRBE, model,
				search.WithPruning(allocTableDepth), search.WithPruneStats(&st))
			if err != nil {
				t.Fatal(err)
			}
			want := search.Top(ex, allocTableDepth)
			if len(pr) != len(want) {
				t.Fatalf("pruned returned %d rows, exhaustive top-%d has %d", len(pr), allocTableDepth, len(want))
			}
			for i := range want {
				if pr[i] != want[i] {
					t.Errorf("rank %d differs:\npruned:     %v\nexhaustive: %v", i+1, pr[i], want[i])
				}
			}
			r, err := search.Rank(space, area.Default(), area.BudgetRBE, model, allocTableDepth)
			if err != nil {
				t.Fatal(err)
			}
			if r.Feasible != len(ex) {
				t.Errorf("Rank feasible = %d, exhaustive has %d", r.Feasible, len(ex))
			}
			for i := range want {
				if i >= len(r.Top) || r.Top[i] != want[i] {
					t.Fatalf("Rank top rank %d differs from exhaustive %v", i+1, want[i])
				}
			}
			tail := len(ex) * 3 / 4
			if got, err := r.At(tail); err != nil || got != ex[tail] {
				t.Errorf("Rank row %d = %v (err %v), exhaustive %v", tail+1, got, err, ex[tail])
			}
			t.Logf("%s: %d composed triples, %d priced (%.2f%%), frontier %dx%dx%d",
				tc.name, st.Composed, st.Priced, 100*float64(st.Priced)/float64(st.Composed),
				st.FrontierTLB, st.FrontierIC, st.FrontierDC)
		})
	}
}

// TestBigSpaceCrossValidation runs the same oracle over the big preset:
// the production configuration (-space big, searched pruned) against an
// exhaustive scan of the identical space and model, for the missmodel
// power-law extension of a measured grid and for the analytic Mach-like
// model.
func TestBigSpaceCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("big-space exhaustive scans take seconds of pricing each; run without -short")
	}
	const refs = 60_000
	grid := search.Table5()
	measured, err := buildMeasuredModel(osmodel.Mach, workload.All(), grid, refs, Options{})
	if err != nil {
		t.Fatalf("model-building sweep: %v", err)
	}
	space := search.Big()
	for _, tc := range []struct {
		name  string
		model search.PerfModel
	}{
		{"extended-measured", missmodel.FromMeasured(measured)},
		{"mach-like", search.MachLike()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := search.EnumerateE(space, area.Default(), area.BudgetRBE, tc.model)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := search.EnumerateE(space, area.Default(), area.BudgetRBE, tc.model,
				search.WithPruning(allocTableDepth))
			if err != nil {
				t.Fatal(err)
			}
			want := search.Top(ex, allocTableDepth)
			if len(pr) != len(want) {
				t.Fatalf("pruned returned %d rows, want %d", len(pr), len(want))
			}
			for i := range want {
				if pr[i] != want[i] {
					t.Errorf("rank %d differs:\npruned:     %v\nexhaustive: %v", i+1, pr[i], want[i])
				}
			}
		})
	}
}
