package search

import (
	"math/rand"
	"testing"

	"onchip/internal/area"
)

// assertRankMatches fails unless r answers what the full sorted ranking
// ex answers: the top k, the feasible count, and the rows at ranks 0,
// 3/4 n (Table 6/7's tail row) and n-1, with out-of-range ranks
// refused.
func assertRankMatches(t *testing.T, label string, r *Ranking, ex []Allocation, k int) {
	t.Helper()
	want := Top(ex, k)
	if len(r.Top) != len(want) {
		t.Fatalf("%s: Top has %d rows, oracle top-%d has %d", label, len(r.Top), k, len(want))
	}
	for i := range want {
		if r.Top[i] != want[i] {
			t.Fatalf("%s: Top rank %d differs:\nrank:   %v\noracle: %v", label, i+1, r.Top[i], want[i])
		}
	}
	n := len(ex)
	if r.Feasible != n {
		t.Fatalf("%s: Feasible = %d, oracle has %d", label, r.Feasible, n)
	}
	if n > 0 {
		for _, i := range []int{0, n * 3 / 4, n - 1} {
			got, err := r.At(i)
			if err != nil {
				t.Fatalf("%s: At(%d): %v", label, i, err)
			}
			if got != ex[i] {
				t.Fatalf("%s: At(%d) differs:\nrank:   %v\noracle: %v", label, i, got, ex[i])
			}
		}
	}
	for _, i := range []int{-1, n} {
		if _, err := r.At(i); err == nil {
			t.Fatalf("%s: At(%d) of %d feasible did not error", label, i, n)
		}
	}
}

// Rank, the production entry point, must answer exactly what the
// materializing oracle EnumerateE answers: on the paper's grid for both
// tables and models, on ~200 tie-rich random spaces at budgets from
// nothing-fits to everything-fits, on the constructed exact tie, and
// under a filter. make crossval-search gates this.
func TestRankMatchesOracle(t *testing.T) {
	am := area.Default()
	t.Run("table5", func(t *testing.T) {
		for _, tc := range []struct {
			name     string
			maxAssoc int
			model    PerfModel
		}{
			{"table6/mach", 0, MachLike()},
			{"table7/mach", 2, MachLike()},
			{"table6/ultrix", 0, UltrixLike()},
			{"table7/ultrix", 2, UltrixLike()},
		} {
			space := Table5()
			space.MaxCacheAssoc = tc.maxAssoc
			ex, err := EnumerateE(space, am, area.BudgetRBE, tc.model)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 10} {
				r, err := Rank(space, am, area.BudgetRBE, tc.model, k)
				if err != nil {
					t.Fatal(err)
				}
				assertRankMatches(t, tc.name, r, ex, k)
			}
			// Pruned, Rank keeps Top and counts only what it returns.
			r, err := Rank(space, am, area.BudgetRBE, tc.model, 10, WithPruning(10))
			if err != nil {
				t.Fatal(err)
			}
			assertRankMatches(t, tc.name+"/pruned", r, Top(ex, 10), 10)
		}
	})

	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1729))
		for trial := 0; trial < 200; trial++ {
			s := randomSpace(rng)
			m := randomModel(rng, s)
			budget := float64(rng.Intn(400_000))
			switch trial % 10 {
			case 0:
				budget = 0 // nothing fits
			case 1:
				budget = 1e12 // everything fits
			}
			ex := Enumerate(s, am, budget, m)
			for _, k := range []int{1, 10, len(ex) + 1} {
				r, err := Rank(s, am, budget, m, k)
				if err != nil {
					t.Fatal(err)
				}
				assertRankMatches(t, "random", r, ex, k)
			}
		}
	})

	t.Run("exact-tie", func(t *testing.T) {
		space, m := tieSpace()
		ex := Enumerate(space, am, area.BudgetRBE, m)
		for k := 1; k <= len(ex)+1; k++ {
			r, err := Rank(space, am, area.BudgetRBE, m, k)
			if err != nil {
				t.Fatal(err)
			}
			assertRankMatches(t, "tie", r, ex, k)
		}
	})

	// At's comparator must break (CPI, area) ties exactly as lessAlloc
	// does. Construction order differs from the canonical order on both
	// axes of Table 5 (fully-associative TLBs come last, caches vary
	// associativity before line size), so records that tie on CPI and
	// area and differ in one component pin the rank tables.
	t.Run("tie-order", func(t *testing.T) {
		r, err := Rank(Table5(), am, 0, MachLike(), 1)
		if err != nil {
			t.Fatal(err)
		}
		tied := func(tl, ic, dc int) row { return row{cpi: 1, area: 1, t: int32(tl), ic: int32(ic), dc: int32(dc)} }
		check := func(a, b row) {
			want := lessAlloc(r.ps.alloc(int(a.t), int(a.ic), int(a.dc), 1, 1), r.ps.alloc(int(b.t), int(b.ic), int(b.dc), 1, 1))
			if r.lessRow(a, b) != want {
				t.Fatalf("lessRow(%+v, %+v) = %v, lessAlloc says %v", a, b, !want, want)
			}
		}
		for i := range r.ps.tlbs {
			for j := range r.ps.tlbs {
				check(tied(i, 0, 0), tied(j, 0, 0))
			}
		}
		for i := range r.ps.caches {
			for j := range r.ps.caches {
				check(tied(0, i, 0), tied(0, j, 0))
				check(tied(0, 0, i), tied(0, 0, j))
				check(tied(0, i, j), tied(0, j, i))
			}
		}
	})

	t.Run("filter", func(t *testing.T) {
		keep := func(_ area.TLBConfig, ic, dc area.CacheConfig) bool {
			return ic.CapacityBytes >= dc.CapacityBytes && dc.Assoc <= 2
		}
		var want []Allocation
		for _, a := range Enumerate(Table5(), am, area.BudgetRBE, MachLike()) {
			if keep(a.TLB, a.ICache, a.DCache) {
				want = append(want, a)
			}
		}
		r, err := Rank(Table5(), am, area.BudgetRBE, MachLike(), 10, WithFilter(keep))
		if err != nil {
			t.Fatal(err)
		}
		assertRankMatches(t, "filter", r, want, 10)
	})

	t.Run("refused", func(t *testing.T) {
		keepAll := func(area.TLBConfig, area.CacheConfig, area.CacheConfig) bool { return true }
		for name, call := range map[string]func() error{
			"rank filter+pruning": func() error {
				_, err := Rank(Table5(), am, area.BudgetRBE, MachLike(), 10, WithPruning(10), WithFilter(keepAll))
				return err
			},
			"oracle filter+pruning": func() error {
				_, err := EnumerateE(Table5(), am, area.BudgetRBE, MachLike(), WithPruning(10), WithFilter(keepAll))
				return err
			},
			"pruning K differs from k": func() error {
				_, err := Rank(Table5(), am, area.BudgetRBE, MachLike(), 10, WithPruning(5))
				return err
			},
			"k zero": func() error {
				_, err := Rank(Table5(), am, area.BudgetRBE, MachLike(), 0)
				return err
			},
		} {
			if call() == nil {
				t.Errorf("%s: no error", name)
			}
		}
	})
}
