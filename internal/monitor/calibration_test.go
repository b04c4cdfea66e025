package monitor

// Calibration regression guards: the workload parameters in
// internal/workload were tuned so the simulated suite reproduces the
// paper's Table 3/4 and Figure 9 shapes (see EXPERIMENTS.md). These
// tests pin those shapes so future edits to the OS model or workloads
// cannot silently break the reproduction.

import (
	"context"
	"testing"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/trace"
	"onchip/internal/vm"
	"onchip/internal/workload"
)

const calRefs = 400_000

func suiteRows(t *testing.T, v osmodel.Variant) map[string]Row {
	t.Helper()
	rows := map[string]Row{}
	suite, err := MeasureRows(context.Background(), Suite(v, workload.All(), calRefs, machine.DECstation3100()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(suite, Average(suite)) {
		rows[r.Workload] = r
	}
	return rows
}

// Table 4's headline shapes, per workload and on average.
func TestTable4Shapes(t *testing.T) {
	ult := suiteRows(t, osmodel.Ultrix)
	mach := suiteRows(t, osmodel.Mach)

	for _, w := range workload.Names() {
		u, m := ult[w], mach[w]
		if m.Breakdown.CPI <= u.Breakdown.CPI {
			t.Errorf("%s: Mach CPI %.2f <= Ultrix %.2f", w, m.Breakdown.CPI, u.Breakdown.CPI)
		}
		if m.Breakdown.Comp[machine.CompICache] <= u.Breakdown.Comp[machine.CompICache] {
			t.Errorf("%s: Mach I$ CPI not above Ultrix", w)
		}
		if m.Breakdown.Comp[machine.CompTLB] <= u.Breakdown.Comp[machine.CompTLB] {
			t.Errorf("%s: Mach TLB CPI not above Ultrix", w)
		}
	}

	uAvg, mAvg := ult["Average"], mach["Average"]
	if r := mAvg.Breakdown.Comp[machine.CompTLB] / uAvg.Breakdown.Comp[machine.CompTLB]; r < 3 {
		t.Errorf("suite TLB CPI ratio Mach/Ultrix = %.1f, want >= 3 (paper ~8)", r)
	}
	if mAvg.Breakdown.Pct(machine.CompDCache) >= uAvg.Breakdown.Pct(machine.CompDCache) {
		t.Error("the D-cache's share of stalls must fall under Mach")
	}
	// Ultrix CPIs in the paper's band (1.3-2.5 across the suite, +50%
	// model headroom).
	if uAvg.Breakdown.CPI < 1.3 || uAvg.Breakdown.CPI > 3.0 {
		t.Errorf("Ultrix average CPI %.2f outside the plausible band", uAvg.Breakdown.CPI)
	}
	// Ultrix barely touches the TLB (paper: 2% of stalls).
	if uAvg.Breakdown.Pct(machine.CompTLB) > 8 {
		t.Errorf("Ultrix TLB stall share %.0f%%, paper says ~2%%", uAvg.Breakdown.Pct(machine.CompTLB))
	}
}

// Figure 9's miss-ratio anchors at the 8-KB 4-word-line point.
func TestFig9Anchors(t *testing.T) {
	measure := func(v osmodel.Variant) float64 {
		var misses, instrs uint64
		for _, spec := range workload.All() {
			c := cache.New(cache.Config{CacheConfig: area.CacheConfig{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 1}})
			osmodel.NewSystem(v, spec).Generate(calRefs/2, trace.SinkFunc(func(r trace.Ref) {
				if r.Kind != trace.IFetch {
					return
				}
				instrs++
				if !c.Access(vm.CacheKey(r.Addr, r.ASID), false) {
					misses++
				}
			}))
		}
		return float64(misses) / float64(instrs)
	}
	ult := measure(osmodel.Ultrix)
	mach := measure(osmodel.Mach)
	if ult < 0.015 || ult > 0.07 {
		t.Errorf("Ultrix 8-KB/4-word I miss ratio %.4f, paper anchor 0.028", ult)
	}
	if mach < 0.045 || mach > 0.13 {
		t.Errorf("Mach 8-KB/4-word I miss ratio %.4f, paper anchor 0.065", mach)
	}
	if mach/ult < 1.4 {
		t.Errorf("Mach/Ultrix I miss ratio %.1fx, paper >2x", mach/ult)
	}
}

// The Mach time split for mpeg_play must stay in the paper's regime:
// the task is no longer the overwhelming majority of execution.
func TestMachTimeSplitRegime(t *testing.T) {
	r := Measure(osmodel.Mach, workload.MPEGPlay(), calRefs, machine.DECstation3100())
	osShare := r.Gen.KernelPct() + r.Gen.BSDPct() + r.Gen.XPct()
	if osShare < 20 {
		t.Errorf("OS contexts get %.0f%% of instructions; the paper measured 60%% of time", osShare)
	}
}
