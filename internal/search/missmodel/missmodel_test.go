package missmodel

import (
	"math"
	"testing"

	"onchip/internal/area"
	"onchip/internal/search"
)

func TestFitRecoversExactPowerLaw(t *testing.T) {
	// y = 3.5 * x^-0.62 exactly; the log-space least squares must
	// recover both coefficients to floating-point accuracy.
	xs := []float64{1024, 2048, 4096, 8192, 16384}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3.5 * math.Pow(x, -0.62)
	}
	law := Fit(xs, ys)
	if math.Abs(law.A-3.5) > 1e-9 || math.Abs(law.B-0.62) > 1e-9 {
		t.Fatalf("Fit = %v, want A=3.5 B=0.62", law)
	}
	if law.N != len(xs) {
		t.Fatalf("Fit used %d points, want %d", law.N, len(xs))
	}
}

func TestFitDegenerateCases(t *testing.T) {
	if law := Fit(nil, nil); law.A != 0 || law.B != 0 || law.N != 0 {
		t.Fatalf("empty fit = %v, want zero curve", law)
	}
	// Non-positive samples are skipped entirely.
	if law := Fit([]float64{100, 200}, []float64{0, -1}); law.N != 0 {
		t.Fatalf("all-non-positive fit used %d points, want 0", law.N)
	}
	// A single usable point (or a single distinct x) fits flat.
	law := Fit([]float64{100}, []float64{0.25})
	if law.B != 0 || math.Abs(law.A-0.25) > 1e-12 {
		t.Fatalf("single-point fit = %v, want flat 0.25", law)
	}
	law = Fit([]float64{100, 100}, []float64{0.1, 0.4})
	if law.B != 0 || math.Abs(law.Eval(100)-0.2) > 1e-12 {
		t.Fatalf("single-x fit = %v, Eval(100)=%g, want geometric mean 0.2", law, law.Eval(100))
	}
}

// gridModel builds a measured model over a small grid from the analytic
// curves, the same way the sweep harness records stack-simulation
// output.
func gridModel(t *testing.T) (*search.Measured, search.Space) {
	t.Helper()
	space := search.Table5()
	an := search.MachLike()
	m := search.NewMeasured(an.BaseCPI())
	for _, cfg := range space.TLBConfigs() {
		m.TLB[cfg] = an.TLBCPI(cfg)
	}
	for _, cfg := range space.CacheConfigs() {
		m.IC[cfg] = an.ICacheCPI(cfg)
		m.DC[cfg] = an.DCacheCPI(cfg)
	}
	return m, space
}

func TestExtendedMatchesMeasuredOnGrid(t *testing.T) {
	m, space := gridModel(t)
	e := FromMeasured(m)
	if e.BaseCPI() != m.Base {
		t.Fatalf("BaseCPI = %g, want %g", e.BaseCPI(), m.Base)
	}
	for _, cfg := range space.TLBConfigs() {
		if got, want := e.TLBCPI(cfg), m.TLB[cfg]; got != want {
			t.Fatalf("TLBCPI(%v) = %g, want exact measured %g", cfg, got, want)
		}
	}
	for _, cfg := range space.CacheConfigs() {
		if got, want := e.ICacheCPI(cfg), m.IC[cfg]; got != want {
			t.Fatalf("ICacheCPI(%v) = %g, want exact measured %g", cfg, got, want)
		}
		if got, want := e.DCacheCPI(cfg), m.DC[cfg]; got != want {
			t.Fatalf("DCacheCPI(%v) = %g, want exact measured %g", cfg, got, want)
		}
		if !e.Measured(area.TLBConfig{Entries: 64, Assoc: 1}, cfg, cfg) {
			t.Fatalf("Measured(%v) = false for an on-grid triple", cfg)
		}
	}
}

func TestExtendedPricesOffGrid(t *testing.T) {
	m, _ := gridModel(t)
	e := FromMeasured(m)

	// A 64-KB cache is outside Table 5; the class fit must price it
	// finitely and positively, below the measured 32-KB point of the
	// same class (misses fall with capacity).
	small := area.CacheConfig{CapacityBytes: 32 << 10, LineWords: 4, Assoc: 2}
	large := area.CacheConfig{CapacityBytes: 64 << 10, LineWords: 4, Assoc: 2}
	got := e.ICacheCPI(large)
	if !(got > 0) || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("off-grid ICacheCPI = %g, want finite positive", got)
	}
	if got >= e.ICacheCPI(small) {
		t.Fatalf("off-grid 64KB CPI %g not below measured 32KB CPI %g", got, e.ICacheCPI(small))
	}

	// An unmeasured class (16-way) must fall back to the nearest
	// measured class rather than returning zero.
	odd := area.CacheConfig{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 16}
	if got := e.DCacheCPI(odd); !(got > 0) {
		t.Fatalf("nearest-class DCacheCPI = %g, want positive", got)
	}

	// Same for TLBs: a 1024-entry 4-way TLB is off-grid.
	tlb := area.TLBConfig{Entries: 1024, Assoc: 4}
	if got := e.TLBCPI(tlb); !(got > 0) || math.IsNaN(got) {
		t.Fatalf("off-grid TLBCPI = %g, want finite positive", got)
	}
	if e.Measured(tlb, small, small) {
		t.Fatal("Measured reported true for an off-grid TLB")
	}
}

func TestBoundAdmissible(t *testing.T) {
	m, space := gridModel(t)
	e := FromMeasured(m)
	b := e.Bound()

	// On the measured grid the bound answers exactly (never above the
	// actual value by construction: exact lookup).
	for _, cfg := range space.TLBConfigs() {
		if got, want := b.TLBCPI(cfg), m.TLB[cfg]; got != want {
			t.Fatalf("bound TLBCPI(%v) = %g, want exact %g", cfg, got, want)
		}
	}
	for _, cfg := range space.CacheConfigs() {
		if got, want := b.ICacheCPI(cfg), m.IC[cfg]; got != want {
			t.Fatalf("bound ICacheCPI(%v) = %g, want exact %g", cfg, got, want)
		}
		if got, want := b.DCacheCPI(cfg), m.DC[cfg]; got != want {
			t.Fatalf("bound DCacheCPI(%v) = %g, want exact %g", cfg, got, want)
		}
	}

	// The slack factors guarantee fitted-path predictions never exceed
	// any measured point the fit covered: prediction*slack <= actual on
	// the whole grid. Verify directly against the fitted path.
	icS, dcS, tlbS := e.Slack()
	if icS > 1 || dcS > 1 || tlbS > 1 || icS <= 0 || dcS <= 0 || tlbS <= 0 {
		t.Fatalf("slack factors (%g, %g, %g) outside (0, 1]", icS, dcS, tlbS)
	}
	for cfg, actual := range m.IC {
		if pred := e.ic.predict(cfg) * icS; pred > actual+1e-12 {
			t.Fatalf("IC bound %g exceeds measured %g at %v", pred, actual, cfg)
		}
	}
	for cfg, actual := range m.DC {
		if pred := e.dc.predict(cfg) * dcS; pred > actual+1e-12 {
			t.Fatalf("DC bound %g exceeds measured %g at %v", pred, actual, cfg)
		}
	}
	for cfg, actual := range m.TLB {
		if pred := e.tlb.predict(cfg) * tlbS; pred > actual+1e-12 {
			t.Fatalf("TLB bound %g exceeds measured %g at %v", pred, actual, cfg)
		}
	}

	// Off the grid, the bound is optimistic relative to the extended
	// model's own prediction (slack <= 1).
	off := area.CacheConfig{CapacityBytes: 64 << 10, LineWords: 4, Assoc: 2}
	if b.ICacheCPI(off) > e.ICacheCPI(off) {
		t.Fatalf("off-grid bound %g exceeds extended prediction %g", b.ICacheCPI(off), e.ICacheCPI(off))
	}
	if b.BaseCPI() != e.BaseCPI() {
		t.Fatalf("bound BaseCPI %g != extended %g", b.BaseCPI(), e.BaseCPI())
	}
}

// The extended model must be usable where it matters: driving both
// search strategies over a space larger than the measured grid and
// producing identical top-K rankings.
func TestExtendedDrivesBothStrategiesIdentically(t *testing.T) {
	m, _ := gridModel(t)
	e := FromMeasured(m)

	// A modest super-space of Table 5: some off-grid sizes and TLBs.
	space := search.Table5()
	space.CacheSizes = append(space.CacheSizes, 64<<10)
	space.TLBEntries = append(space.TLBEntries, 1024)

	const k = 10
	ex := search.Enumerate(space, area.Default(), area.BudgetRBE, e)
	pr, err := search.EnumerateE(space, area.Default(), area.BudgetRBE, e, search.WithPruning(k))
	if err != nil {
		t.Fatalf("pruned: %v", err)
	}
	want := search.Top(ex, k)
	if len(pr) != len(want) {
		t.Fatalf("pruned returned %d allocations, want %d", len(pr), len(want))
	}
	for i := range want {
		if pr[i] != want[i] {
			t.Fatalf("rank %d differs:\npruned:     %v\nexhaustive: %v", i+1, pr[i], want[i])
		}
	}
}

// Refitting one measured model must price every configuration of the
// big space bit-for-bit identically, every time: the fit's
// floating-point sums may not depend on map iteration order, or a
// big-space ranking differs between identical runs in its last digits.
func TestRefitDeterministic(t *testing.T) {
	m, _ := gridModel(t)
	ref := FromMeasured(m)
	big := search.Big()
	same := func(what string, cfg any, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("refit %s(%v) = %v, first fit gave %v", what, cfg, got, want)
		}
	}
	for i := 0; i < 30; i++ {
		e := FromMeasured(m)
		for _, cfg := range big.CacheConfigs() {
			same("ICacheCPI", cfg, e.ICacheCPI(cfg), ref.ICacheCPI(cfg))
			same("DCacheCPI", cfg, e.DCacheCPI(cfg), ref.DCacheCPI(cfg))
		}
		for _, cfg := range big.TLBConfigs() {
			same("TLBCPI", cfg, e.TLBCPI(cfg), ref.TLBCPI(cfg))
		}
	}
}
