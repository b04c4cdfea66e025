package monitor

import (
	"context"
	"testing"

	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/workload"
)

const testRefs = 400_000

// The paper's central observation (Tables 3/4): Mach's CPI exceeds
// Ultrix's, with large increases in TLB and I-cache stalls, while the
// D-cache's *share* of stalls falls.
func TestMachShiftsStallProfile(t *testing.T) {
	cfg := machine.DECstation3100()
	spec := workload.MPEGPlay()
	ult := Measure(osmodel.Ultrix, spec, testRefs, cfg)
	mach := Measure(osmodel.Mach, spec, testRefs, cfg)

	if mach.Breakdown.CPI <= ult.Breakdown.CPI {
		t.Errorf("CPI: Mach %.2f <= Ultrix %.2f", mach.Breakdown.CPI, ult.Breakdown.CPI)
	}
	if mach.Breakdown.Comp[machine.CompTLB] < 2*ult.Breakdown.Comp[machine.CompTLB] {
		t.Errorf("TLB CPI: Mach %.3f should be >= 2x Ultrix %.3f",
			mach.Breakdown.Comp[machine.CompTLB], ult.Breakdown.Comp[machine.CompTLB])
	}
	if mach.Breakdown.Comp[machine.CompICache] <= ult.Breakdown.Comp[machine.CompICache] {
		t.Errorf("I-cache CPI: Mach %.3f <= Ultrix %.3f",
			mach.Breakdown.Comp[machine.CompICache], ult.Breakdown.Comp[machine.CompICache])
	}
	if mach.Breakdown.Pct(machine.CompDCache) >= ult.Breakdown.Pct(machine.CompDCache) {
		t.Errorf("D-cache share: Mach %.0f%% should fall below Ultrix %.0f%%",
			mach.Breakdown.Pct(machine.CompDCache), ult.Breakdown.Pct(machine.CompDCache))
	}
}

// Row 1 of Table 3: user-only simulation sees a lower CPI than the full
// system and misses the OS-driven stalls.
func TestUserOnlyUnderestimates(t *testing.T) {
	cfg := machine.DECstation3100()
	spec := workload.MPEGPlay()
	none := measure(Conditions(spec, testRefs, cfg)[0])
	ult := Measure(osmodel.Ultrix, spec, testRefs, cfg)
	if none.OS != "None" {
		t.Errorf("OS label = %q", none.OS)
	}
	if none.Breakdown.CPI >= ult.Breakdown.CPI {
		t.Errorf("user-only CPI %.2f should be below Ultrix %.2f",
			none.Breakdown.CPI, ult.Breakdown.CPI)
	}
	if none.Breakdown.Comp[machine.CompTLB] >= ult.Breakdown.Comp[machine.CompTLB]+0.05 {
		t.Error("user-only run should not see more TLB stalls than the full system")
	}
}

// The Mach time split must resemble the paper's 40/25/30/5 measurement
// for mpeg_play: the task well under two-thirds, with real kernel, BSD
// and X shares.
func TestMachTimeSplit(t *testing.T) {
	r := Measure(osmodel.Mach, workload.MPEGPlay(), testRefs, machine.DECstation3100())
	if r.Gen.AppPct() > 75 || r.Gen.AppPct() < 25 {
		t.Errorf("app share = %.0f%%, want the paper's regime (~40%%)", r.Gen.AppPct())
	}
	for name, pct := range map[string]float64{
		"kernel": r.Gen.KernelPct(),
		"bsd":    r.Gen.BSDPct(),
		"x":      r.Gen.XPct(),
	} {
		if pct <= 1 {
			t.Errorf("%s share = %.1f%%, want a visible share", name, pct)
		}
	}
}

func TestMeasureSuiteShapes(t *testing.T) {
	rows, err := MeasureRows(context.Background(), Suite(osmodel.Mach, workload.All(), 100_000, machine.DECstation3100()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, Average(rows))
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 6 workloads + average", len(rows))
	}
	if rows[6].Workload != "Average" {
		t.Errorf("last row = %q, want Average", rows[6].Workload)
	}
	var sum float64
	for _, r := range rows[:6] {
		sum += r.Breakdown.CPI
		if r.Breakdown.CPI <= 1 {
			t.Errorf("%s: CPI %.2f <= 1", r.Workload, r.Breakdown.CPI)
		}
	}
	if avg := rows[6].Breakdown.CPI; avg < sum/6-0.01 || avg > sum/6+0.01 {
		t.Errorf("average CPI %.3f, want %.3f", avg, sum/6)
	}
}
