package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"onchip/internal/area"
)

// assertSameRanking fails unless the pruned result equals the first
// len(pruned) entries of the exhaustive ranking element-for-element --
// the byte-identity oracle of ISSUE 10.
func assertSameRanking(t *testing.T, pruned, exhaustive []Allocation, k int) {
	t.Helper()
	want := Top(exhaustive, k)
	if len(pruned) != len(want) {
		t.Fatalf("pruned returned %d allocations, exhaustive top-%d has %d", len(pruned), k, len(want))
	}
	for i := range want {
		if pruned[i] != want[i] {
			t.Fatalf("rank %d differs:\npruned:     %v\nexhaustive: %v", i+1, pruned[i], want[i])
		}
	}
}

// The tentpole oracle: pruned top-K byte-identical to the exhaustive
// ranking on the Table 5 grid for both the Table 6 (unrestricted) and
// Table 7 (assoc <= 2) settings. make crossval-search gates this.
func TestPrunedMatchesExhaustiveTable5(t *testing.T) {
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
		t.Run(tc.name, func(t *testing.T) {
			space := Table5()
			space.MaxCacheAssoc = tc.maxAssoc
			ex := Enumerate(space, area.Default(), area.BudgetRBE, tc.model)
			for _, k := range []int{1, 3, 10, 50} {
				var st PruneStats
				pr, err := EnumerateE(space, area.Default(), area.BudgetRBE, tc.model,
					WithPruning(k), WithPruneStats(&st))
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				assertSameRanking(t, pr, ex, k)
				if st.Priced >= st.Composed {
					t.Errorf("k=%d: pruning priced the whole space (%d of %d)", k, st.Priced, st.Composed)
				}
			}
		})
	}
}

// The pruned accounting must balance: every triple of the composed
// space is either priced or attributed to exactly one prune bucket.
func TestPrunedAccountingInvariant(t *testing.T) {
	space := Table5()
	var st PruneStats
	if _, err := EnumerateE(space, area.Default(), area.BudgetRBE, MachLike(),
		WithPruning(10), WithPruneStats(&st)); err != nil {
		t.Fatal(err)
	}
	if want := space.Triples(); st.Composed != want {
		t.Errorf("Composed = %d, want %d", st.Composed, want)
	}
	if got := st.Priced + st.PrunedFrontier + st.PrunedBudget + st.PrunedBound; got != st.Composed {
		t.Errorf("accounting leak: priced %d + frontier %d + budget %d + bound %d = %d, want Composed %d",
			st.Priced, st.PrunedFrontier, st.PrunedBudget, st.PrunedBound, got, st.Composed)
	}
	if st.FrontierTLB > st.TLBs || st.FrontierIC > st.Caches || st.FrontierDC > st.Caches {
		t.Errorf("frontier larger than its axis: %+v", st)
	}
	if st.PrunedFrontier != st.Composed-st.FrontierTLB*st.FrontierIC*st.FrontierDC {
		t.Errorf("frontier accounting off: %+v", st)
	}
}

// Satellite: Progress under pruning. Total must stay the pre-prune
// composed size (the same space reports the same Total under either
// strategy), Pruned must be reported, and coverage (priced + pruned)
// must converge on Total so progress views don't stall.
func TestPrunedProgress(t *testing.T) {
	space := Table5()
	var reports []Progress
	allocs, err := EnumerateE(space, area.Default(), area.BudgetRBE, MachLike(),
		WithPruning(10),
		WithProgress(1000, func(p Progress) { reports = append(reports, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("got %d progress reports, want at least an interim and a final", len(reports))
	}
	final := reports[len(reports)-1]
	if !final.Done {
		t.Error("last report should have Done set")
	}
	if want := space.Triples(); final.Total != want {
		t.Errorf("Total = %d, want pre-prune composed size %d", final.Total, want)
	}
	if final.Covered() != final.Total {
		t.Errorf("final Covered = %d (priced %d + pruned %d), want Total %d",
			final.Covered(), final.Priced, final.Pruned, final.Total)
	}
	if final.Pruned == 0 {
		t.Error("final Pruned = 0, want most of the space dismissed")
	}
	if final.Kept != len(allocs) {
		t.Errorf("final Kept = %d, want %d", final.Kept, len(allocs))
	}
	for i, p := range reports {
		if i > 0 && p.Covered() < reports[i-1].Covered() {
			t.Errorf("coverage went backwards at report %d", i)
		}
		if p.String() == "" {
			t.Error("empty progress string")
		}
		if !p.Done && p.ETA < 0 {
			t.Errorf("negative ETA at report %d", i)
		}
	}
	// The interim reports must show real coverage, not a bar stalled
	// near zero: with pruning, covered quickly dwarfs priced.
	interim := reports[0]
	if interim.Covered() <= interim.Priced {
		t.Errorf("interim coverage %d not ahead of priced %d; Pruned missing from progress",
			interim.Covered(), interim.Priced)
	}
	b, err := final.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"pruned":`, `"priced":`, `"total":`} {
		if s := string(b); !strings.Contains(s, key) {
			t.Errorf("progress JSON missing %s: %s", key, s)
		}
	}
}

// Satellite: equal-CPI equal-area allocations must rank
// deterministically -- and identically -- in both strategies. The model
// below makes (IC=c1, DC=c2) and (IC=c2, DC=c1) tie exactly on both
// keys (same component areas, symmetric CPI contributions), which is
// the case an unstable discovery-order sort would break.
func TestTieBreakDeterministic(t *testing.T) {
	space := Space{
		TLBEntries:  []int{64},
		TLBAssocs:   []int{2},
		CacheSizes:  []int{4 << 10, 8 << 10},
		CacheAssocs: []int{1},
		CacheLines:  []int{4},
	}
	m := NewMeasured(1)
	for _, tc := range space.TLBConfigs() {
		m.TLB[tc] = 0.0625
	}
	ccs := space.CacheConfigs()
	if len(ccs) != 2 {
		t.Fatalf("want exactly 2 cache configs, got %d", len(ccs))
	}
	// Symmetric contributions -- ic(a)+dc(b) == ic(b)+dc(a) -- chosen
	// dyadic so the float sums tie EXACTLY, not just to a printed digit.
	m.IC[ccs[0]], m.DC[ccs[0]] = 0.125, 0.375
	m.IC[ccs[1]], m.DC[ccs[1]] = 0.25, 0.5

	ex := Enumerate(space, area.Default(), area.BudgetRBE, m)
	if len(ex) != 4 {
		t.Fatalf("feasible = %d, want all 4 triples", len(ex))
	}
	// The mixed triples tie on CPI; areas match too (same two caches).
	var mixed []Allocation
	for _, a := range ex {
		if a.ICache != a.DCache {
			mixed = append(mixed, a)
		}
	}
	if len(mixed) != 2 || mixed[0].CPI != mixed[1].CPI || mixed[0].AreaRBE != mixed[1].AreaRBE {
		t.Fatalf("tie not constructed: %v", mixed)
	}
	// The canonical order puts the smaller I-cache first on a full tie.
	if !lessAlloc(mixed[0], mixed[1]) || lessAlloc(mixed[1], mixed[0]) {
		t.Fatalf("lessAlloc is not a strict order on the tied pair: %v", mixed)
	}
	if cmpCacheConfig(mixed[0].ICache, mixed[1].ICache) >= 0 {
		t.Errorf("tie not broken by canonical config order: %v before %v", mixed[0], mixed[1])
	}
	// Both strategies must agree on the full ranking, ties included.
	for _, k := range []int{1, 2, 3, 4} {
		pr, err := EnumerateE(space, area.Default(), area.BudgetRBE, m, WithPruning(k))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, pr, ex, k)
	}
	// Repeated runs are bit-stable (sort.SliceStable over a strict
	// total order leaves no room for discovery-order leakage).
	again := Enumerate(space, area.Default(), area.BudgetRBE, m)
	for i := range ex {
		if ex[i] != again[i] {
			t.Fatalf("exhaustive ranking not stable at %d: %v vs %v", i, ex[i], again[i])
		}
	}
}

// randomSpace draws a small design space: a few TLB and cache points,
// sometimes with MaxCacheAssoc restrictions.
func randomSpace(rng *rand.Rand) Space {
	pick := func(pool []int, n int) []int {
		idx := rng.Perm(len(pool))[:n]
		out := make([]int, n)
		for i, j := range idx {
			out[i] = pool[j]
		}
		return out
	}
	s := Space{
		TLBEntries:  pick([]int{16, 32, 64, 128, 256, 512}, 1+rng.Intn(3)),
		TLBAssocs:   pick([]int{1, 2, 4, 8}, 1+rng.Intn(2)),
		CacheSizes:  pick([]int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}, 1+rng.Intn(3)),
		CacheAssocs: pick([]int{1, 2, 4}, 1+rng.Intn(2)),
		CacheLines:  pick([]int{1, 2, 4, 8, 16}, 1+rng.Intn(3)),
	}
	if rng.Intn(4) == 0 {
		s.TLBFAEntries = []int{16, 32}
	}
	if rng.Intn(4) == 0 {
		s.MaxCacheAssoc = 2
	}
	return s
}

// randomModel prices every configuration of the space with values
// ROUNDED to two decimals -- coarse on purpose, so CPI ties across
// distinct configurations are common and the deterministic tie-break
// carries real weight in the equality check.
func randomModel(rng *rand.Rand, s Space) *Measured {
	round := func(v float64) float64 { return math.Round(v*100) / 100 }
	m := NewMeasured(1)
	for _, c := range s.TLBConfigs() {
		m.TLB[c] = round(rng.Float64() * 0.3)
	}
	for _, c := range s.CacheConfigs() {
		m.IC[c] = round(rng.Float64() * 0.5)
		m.DC[c] = round(rng.Float64() * 0.5)
	}
	return m
}

// Satellite: the randomized property test. ~200 random small spaces,
// random coarse models (tie-rich), random budgets (some so tight that
// little or nothing is feasible), random K: pruned top-K must equal
// the exhaustive ranking prefix every single time. make check runs
// this under -race.
func TestPrunedMatchesExhaustiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(941))
	for trial := 0; trial < 200; trial++ {
		s := randomSpace(rng)
		m := randomModel(rng, s)
		// Budgets from starve-everything to fit-everything.
		budget := float64(rng.Intn(400_000))
		k := 1 + rng.Intn(20)

		ex := Enumerate(s, area.Default(), budget, m)
		var st PruneStats
		pr, err := EnumerateE(s, area.Default(), budget, m, WithPruning(k), WithPruneStats(&st))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := Top(ex, k)
		if len(pr) != len(want) {
			t.Fatalf("trial %d (space %+v budget %.0f k=%d): pruned %d vs exhaustive %d",
				trial, s, budget, k, len(pr), len(want))
		}
		for i := range want {
			if pr[i] != want[i] {
				t.Fatalf("trial %d (space %+v budget %.0f k=%d) rank %d:\npruned:     %v\nexhaustive: %v",
					trial, s, budget, k, i+1, pr[i], want[i])
			}
		}
		if got := st.Priced + st.PrunedFrontier + st.PrunedBudget + st.PrunedBound; got != st.Composed {
			t.Fatalf("trial %d: accounting leak (%d != %d): %+v", trial, got, st.Composed, st)
		}
	}
}

func TestPrunedRefusesBadK(t *testing.T) {
	if _, err := EnumerateE(Table5(), area.Default(), area.BudgetRBE, MachLike(),
		WithPruning(-1)); err == nil {
		t.Error("negative top-K did not error")
	}
}

// Both strategies stop on cancellation and report context.Canceled:
// a context cancelled before the call, and -- on the exhaustive path,
// whose loop runs long enough to interrupt -- one cancelled from a
// progress callback mid-run.
func TestEnumerateCancellation(t *testing.T) {
	full := Enumerate(Table5(), area.Default(), area.BudgetRBE, MachLike())
	for _, tc := range []struct {
		name   string
		pruned bool
		midRun bool
	}{
		{"exhaustive/before", false, false},
		{"exhaustive/mid-run", false, true},
		{"pruned/before", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := []Option{WithContext(ctx)}
			if tc.pruned {
				opts = append(opts, WithPruning(10))
			}
			if tc.midRun {
				opts = append(opts, WithProgress(10_000, func(p Progress) {
					if p.Done {
						t.Error("enumeration ran to completion after cancellation")
					}
					cancel()
				}))
			} else {
				cancel()
			}
			partial, err := EnumerateE(Table5(), area.Default(), area.BudgetRBE, MachLike(), opts...)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if tc.midRun && (len(partial) == 0 || len(partial) >= len(full)) {
				t.Errorf("mid-run cancellation kept %d of %d allocations, want a strict non-empty prefix of the work",
					len(partial), len(full))
			}
		})
	}
}

// K beyond the feasible count degrades gracefully: the pruned result is
// the complete feasible ranking, identical to exhaustive.
func TestPrunedTopKBeyondFeasible(t *testing.T) {
	space := Space{
		TLBEntries:  []int{64},
		TLBAssocs:   []int{2},
		CacheSizes:  []int{4 << 10, 8 << 10},
		CacheAssocs: []int{1},
		CacheLines:  []int{4, 8},
	}
	ex := Enumerate(space, area.Default(), area.BudgetRBE, MachLike())
	pr, err := EnumerateE(space, area.Default(), area.BudgetRBE, MachLike(),
		WithPruning(10_000))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, pr, ex, 10_000)
}

// The big preset must actually be the million-point space the pruned
// engine exists for.
func TestBigSpaceSize(t *testing.T) {
	if got := Big().Triples(); got < 1_000_000 {
		t.Fatalf("Big space has %d triples, want >= 1,000,000", got)
	}
	for _, c := range Big().CacheConfigs() {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid cache config in Big space: %v", err)
		}
	}
	for _, c := range Big().TLBConfigs() {
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid TLB config in Big space: %v", err)
		}
	}
}

// paretoK with k=1 is classical dominance; spot-check the beats
// relation and the >=k threshold directly.
func TestParetoK(t *testing.T) {
	pts := []axisPoint{
		{area: 1, cpi: 3, idx: 0},
		{area: 2, cpi: 2, idx: 1},
		{area: 3, cpi: 1, idx: 2},
		{area: 3, cpi: 3, idx: 3}, // dominated by 0, 1, and 2
		{area: 1, cpi: 3, idx: 4}, // full tie with 0: canonical order decides
	}
	tie := func(i, j int) int { return i - j }
	ids := func(out []axisPoint) []int {
		var v []int
		for _, p := range out {
			v = append(v, p.idx)
		}
		return v
	}
	got1 := ids(paretoK(pts, 1, tie))
	// k=1: the frontier keeps 0,1,2; 3 is dominated; 4 loses its tie to 0.
	want1 := []int{0, 1, 2}
	if len(got1) != len(want1) {
		t.Fatalf("paretoK(1) kept %v, want %v", got1, want1)
	}
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("paretoK(1) kept %v, want %v", got1, want1)
		}
	}
	// k=3: only 3 is beaten three times (by 0, 1, 2); 4 is beaten once.
	got3 := ids(paretoK(pts, 3, tie))
	want3 := []int{0, 1, 2, 4}
	if len(got3) != len(want3) {
		t.Fatalf("paretoK(3) kept %v, want %v", got3, want3)
	}
	for i := range want3 {
		if got3[i] != want3[i] {
			t.Fatalf("paretoK(3) kept %v, want %v", got3, want3)
		}
	}
}
