package search

import (
	"testing"

	"onchip/internal/area"
)

func TestTable5Space(t *testing.T) {
	s := Table5()
	tlbs := s.TLBConfigs()
	// 4 sizes x 4 associativities + one fully-associative entry.
	if len(tlbs) != 17 {
		t.Errorf("TLB configs = %d, want 17", len(tlbs))
	}
	caches := s.CacheConfigs()
	// 5 sizes x 4 assoc x 6 lines, minus combinations with fewer lines
	// than ways.
	if len(caches) == 0 || len(caches) > 120 {
		t.Errorf("cache configs = %d", len(caches))
	}
	for _, c := range caches {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid cache config in space: %v", err)
		}
	}
	for _, c := range tlbs {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid TLB config in space: %v", err)
		}
	}
}

func TestMaxCacheAssocRestriction(t *testing.T) {
	s := Table5()
	s.MaxCacheAssoc = 2
	for _, c := range s.CacheConfigs() {
		if c.Assoc > 2 {
			t.Fatalf("restricted space contains %v", c)
		}
	}
}

func TestEnumerateRespectsBudget(t *testing.T) {
	allocs := Enumerate(Table5(), area.Default(), area.BudgetRBE, MachLike())
	if len(allocs) == 0 {
		t.Fatal("no feasible allocations")
	}
	for _, a := range allocs {
		if a.AreaRBE > area.BudgetRBE {
			t.Fatalf("allocation over budget: %v", a)
		}
	}
	// Sorted by CPI ascending.
	for i := 1; i < len(allocs); i++ {
		if allocs[i].CPI < allocs[i-1].CPI {
			t.Fatalf("not sorted at %d: %.4f < %.4f", i, allocs[i].CPI, allocs[i-1].CPI)
		}
	}
}

// The paper's headline: with Mach measurements, the best allocations use
// the largest TLB and an I-cache at least as large as the D-cache.
func TestMachLikeFavorsTLBAndICache(t *testing.T) {
	allocs := Enumerate(Table5(), area.Default(), area.BudgetRBE, MachLike())
	top := Top(allocs, 10)
	if len(top) != 10 {
		t.Fatalf("top = %d", len(top))
	}
	for i, a := range top {
		if a.TLB.Entries < 256 {
			t.Errorf("rank %d uses a small TLB: %v", i+1, a.TLB)
		}
		if a.ICache.CapacityBytes < a.DCache.CapacityBytes {
			t.Errorf("rank %d gives the D-cache more capacity: %v", i+1, a)
		}
	}
}

// Restricting associativity must not improve the best achievable CPI.
func TestRestrictionNeverImproves(t *testing.T) {
	free := Enumerate(Table5(), area.Default(), area.BudgetRBE, MachLike())
	restricted := Table5()
	restricted.MaxCacheAssoc = 2
	r := Enumerate(restricted, area.Default(), area.BudgetRBE, MachLike())
	if r[0].CPI < free[0].CPI {
		t.Errorf("restricted best %.4f beats unrestricted %.4f", r[0].CPI, free[0].CPI)
	}
}

func TestTopClamps(t *testing.T) {
	allocs := []Allocation{{CPI: 1}, {CPI: 2}}
	if got := Top(allocs, 10); len(got) != 2 {
		t.Errorf("Top returned %d", len(got))
	}
}

func TestMeasuredModel(t *testing.T) {
	m := NewMeasured(1.3)
	tc := area.TLBConfig{Entries: 64, Assoc: 2}
	cc := area.CacheConfig{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 1}
	m.TLB[tc] = 0.1
	m.IC[cc] = 0.2
	m.DC[cc] = 0.3
	if m.BaseCPI() != 1.3 || m.TLBCPI(tc) != 0.1 || m.ICacheCPI(cc) != 0.2 || m.DCacheCPI(cc) != 0.3 {
		t.Error("measured lookups wrong")
	}
	for name, f := range map[string]func(){
		"tlb": func() { m.TLBCPI(area.TLBConfig{Entries: 128, Assoc: 2}) },
		"ic":  func() { m.ICacheCPI(area.CacheConfig{CapacityBytes: 4 << 10, LineWords: 4, Assoc: 1}) },
		"dc":  func() { m.DCacheCPI(area.CacheConfig{CapacityBytes: 4 << 10, LineWords: 4, Assoc: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unmeasured lookup did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAnalyticModelShape(t *testing.T) {
	for _, m := range []Analytic{MachLike(), UltrixLike()} {
		// Miss CPI falls with capacity.
		small := m.ICacheCPI(area.CacheConfig{CapacityBytes: 4 << 10, LineWords: 4, Assoc: 1})
		big := m.ICacheCPI(area.CacheConfig{CapacityBytes: 32 << 10, LineWords: 4, Assoc: 1})
		if big >= small {
			t.Error("I-cache CPI not falling with capacity")
		}
		// TLB flattens once coverage is reached.
		t64 := m.TLBCPI(area.TLBConfig{Entries: 64, Assoc: area.FullyAssociative})
		t512 := m.TLBCPI(area.TLBConfig{Entries: 512, Assoc: 8})
		if t512 >= t64 {
			t.Error("TLB CPI not falling with size")
		}
		// Direct-mapped TLBs perform very poorly (Figure 8).
		dm := m.TLBCPI(area.TLBConfig{Entries: 128, Assoc: 1})
		sa := m.TLBCPI(area.TLBConfig{Entries: 128, Assoc: 2})
		if dm <= sa {
			t.Error("direct-mapped TLB should be worse than 2-way")
		}
	}
	// Mach responds to I-line size more strongly than Ultrix at 8 KB.
	mach, ult := MachLike(), UltrixLike()
	gainM := mach.ICacheCPI(cfg8(1)) - mach.ICacheCPI(cfg8(8))
	gainU := ult.ICacheCPI(cfg8(1)) - ult.ICacheCPI(cfg8(8))
	if gainM <= gainU {
		t.Errorf("line-size gain: Mach %.3f <= Ultrix %.3f", gainM, gainU)
	}
}

func cfg8(line int) area.CacheConfig {
	return area.CacheConfig{CapacityBytes: 8 << 10, LineWords: line, Assoc: 1}
}

func TestAllocationString(t *testing.T) {
	a := Allocation{
		TLB:     area.TLBConfig{Entries: 512, Assoc: 8},
		ICache:  area.CacheConfig{CapacityBytes: 16 << 10, LineWords: 8, Assoc: 8},
		DCache:  area.CacheConfig{CapacityBytes: 8 << 10, LineWords: 8, Assoc: 8},
		AreaRBE: 163438,
		CPI:     1.333,
	}
	if a.String() == "" {
		t.Error("empty allocation string")
	}
}
