package experiments

import (
	"fmt"

	"onchip/internal/area"
	"onchip/internal/machine"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/tapeworm"
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

// runTapeworm generates refs references of the workload under the OS
// variant, with the given TLB configurations simulated Tapeworm-style
// from the hardware (R2000) TLB's miss events. It returns per-config
// results and the scale factor to the workload's nominal full run.
func runTapeworm(v osmodel.Variant, spec osmodel.WorkloadSpec, refs int, configs []tlb.Config) ([]tapeworm.Result, float64) {
	hw := tlb.NewManaged(tlb.R2000(), tlb.DefaultCosts())
	tw := tapeworm.Attach(hw, configs...)
	sink := &tlbOnly{hw: hw}
	sys := osmodel.NewSystem(v, spec)
	// Warm up: run a third of the budget to populate the page
	// first-touch set and the TLBs, then measure steady-state rates
	// (scaling a cold-start transient to the full run would grossly
	// overstate the compulsory/page-fault floor).
	sys.Generate(refs/3, sink)
	hw.ResetService()
	tw.ResetServices()
	sink.instrs = 0
	sys.Generate(refs, sink)
	scale := float64(spec.FullRunInstrs) / float64(sink.instrs)
	return tw.Results(), scale
}

// figure7 sums scaled TLB service time for fully-associative TLBs of
// 32-512 entries across the whole suite under Mach, split into the
// paper's categories.
func figure7(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	sizes := []int{32, 64, 128, 256, 512}
	var configs []tlb.Config
	for _, n := range sizes {
		configs = append(configs, tlb.Config{TLBConfig: area.TLBConfig{Entries: n, Assoc: area.FullyAssociative}})
	}

	user := make([]float64, len(sizes))
	kernel := make([]float64, len(sizes))
	other := make([]float64, len(sizes))
	for _, spec := range workload.All() {
		results, scale := runTapeworm(osmodel.Mach, spec, refs, configs)
		for i, r := range results {
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
	var configs []tlb.Config
	configs = append(configs, tlb.Config{TLBConfig: area.TLBConfig{Entries: 256, Assoc: area.FullyAssociative}})
	for _, a := range assocs {
		for _, n := range sizes {
			configs = append(configs, tlb.Config{TLBConfig: area.TLBConfig{Entries: n, Assoc: a}})
		}
	}

	results, _ := runTapeworm(osmodel.Mach, workload.VideoPlay(), refs, configs)
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
