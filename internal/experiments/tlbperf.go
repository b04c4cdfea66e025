package experiments

import (
	"fmt"
	"runtime"

	"onchip/internal/area"
	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/tlb"
	"onchip/internal/trace"
	"onchip/internal/workload"
)

func init() {
	register("fig7", "Figure 7: total TLB service time vs fully-associative TLB size (suite under Mach)", figure7)
	register("fig8", "Figure 8: set-associative TLB performance relative to a 256-entry fully-associative TLB (video_play, Mach)", figure8)
}

// tlbOnly is a minimal sink that drives a managed TLB (and through its
// miss hooks, Tapeworm) without cache simulation -- the kernel-based
// method's speed advantage over trace-driven simulation.
type tlbOnly struct {
	hw     *tlb.Managed
	instrs uint64
}

func (s *tlbOnly) Ref(r trace.Ref) {
	if r.Kind == trace.IFetch {
		s.instrs++
	}
	s.hw.Translate(r.Addr, r.ASID)
}

// Refs implements trace.BatchSink: the devirtualized loop lets the
// generator batch its deliveries.
func (s *tlbOnly) Refs(refs []trace.Ref) {
	for _, r := range refs {
		if r.Kind == trace.IFetch {
			s.instrs++
		}
		s.hw.Translate(r.Addr, r.ASID)
	}
}

// figure7 sums scaled TLB service time for fully-associative TLBs of
// 32-512 entries across the whole suite under Mach, split into the
// paper's categories.
func figure7(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	sizes := []int{32, 64, 128, 256, 512}
	var plan sweepPlan
	for _, n := range sizes {
		plan.tlbs = append(plan.tlbs, area.TLBConfig{Entries: n, Assoc: area.FullyAssociative})
	}
	specs := workload.All()
	recs, err := sweepSuite(osmodel.Mach, specs, plan, refs, opt, runtime.NumCPU())
	if err != nil {
		return Result{}, err
	}

	// Each workload's service time scales to its nominal full run by
	// the instructions of Tapeworm's measured window, summed in suite
	// order.
	user := make([]float64, len(sizes))
	kernel := make([]float64, len(sizes))
	other := make([]float64, len(sizes))
	for w, rec := range recs {
		scale := float64(specs[w].FullRunInstrs) / float64(rec.tlbInstrs)
		for i, r := range rec.tlb {
			user[i] += float64(r.Service.Cycles[tlb.UserMiss]) * scale / machine.ClockHz
			kernel[i] += float64(r.Service.Cycles[tlb.KernelMiss]) * scale / machine.ClockHz
			other[i] += float64(r.Service.Cycles[tlb.OtherMiss]) * scale / machine.ClockHz
		}
	}

	t := report.NewTable("Total TLB service time (seconds, whole suite under Mach, scaled to full runs)",
		"TLB (fully-assoc)", "User", "Kernel", "Other", "Total")
	total := make([]float64, len(sizes))
	for i, n := range sizes {
		total[i] = user[i] + kernel[i] + other[i]
		t.Row(fmt.Sprintf("%d entries", n), user[i], kernel[i], other[i], total[i])
	}
	s := report.Series{Label: "total TLB service time"}
	for i, n := range sizes {
		s.Points = append(s.Points, report.Point{X: fmt.Sprintf("%d", n), Y: total[i]})
	}
	return Result{
		Text: t.String() + "\n" + report.Chart("TLB service time vs fully-associative TLB size", "seconds", s),
		Notes: []string{
			"paper: 64-entry FA needs >46 s of service; 256/512 entries reduce it to ~10 s, a compulsory-dominated floor",
			"the shape to check: steep drop to 256 entries, flat beyond (remaining misses are page faults and first touches)",
		},
	}, nil
}

// figure8 compares set-associative TLBs to the 256-entry
// fully-associative baseline on video_play under Mach.
func figure8(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	sizes := []int{64, 128, 256, 512}
	assocs := []int{1, 2, 4, 8}
	plan := sweepPlan{tlbs: []area.TLBConfig{{Entries: 256, Assoc: area.FullyAssociative}}}
	for _, a := range assocs {
		for _, n := range sizes {
			plan.tlbs = append(plan.tlbs, area.TLBConfig{Entries: n, Assoc: a})
		}
	}

	recs, err := sweepSuite(osmodel.Mach, []osmodel.WorkloadSpec{workload.VideoPlay()}, plan, refs, opt, runtime.NumCPU())
	if err != nil {
		return Result{}, err
	}
	results := recs[0].tlb
	baseline := float64(results[0].Service.TotalCycles())
	var series []report.Series
	idx := 1
	for _, a := range assocs {
		s := report.Series{Label: fmt.Sprintf("%d-way", a)}
		for _, n := range sizes {
			perf := 0.0
			if c := results[idx].Service.TotalCycles(); c > 0 {
				perf = baseline / float64(c)
			}
			s.Points = append(s.Points, report.Point{X: fmt.Sprintf("%d entries", n), Y: perf})
			idx++
		}
		series = append(series, s)
	}
	return Result{
		Text: report.Chart("TLB performance relative to 256-entry fully-associative (1.0 = equal; video_play under Mach)", "relative perf", series...),
		Notes: []string{
			"paper: for TLBs of 64+ entries, 2-, 4- and 8-way perform alike; 512-entry set-associative matches the 256-entry FA",
			"direct-mapped TLBs perform very poorly (the paper omits them from the plot)",
		},
	}, nil
}
