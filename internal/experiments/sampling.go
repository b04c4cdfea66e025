package experiments

import (
	"fmt"
	"runtime"

	"onchip/internal/area"
	"onchip/internal/cache"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/sampling"
	"onchip/internal/stats"
	"onchip/internal/trace"
	"onchip/internal/vm"
	"onchip/internal/workload"
)

func init() {
	register("sampling", "Section 3 methodology: trace-sampling accuracy versus full-trace simulation", samplingExperiment)
}

// samplingExperiment repeats the paper's validation of trace sampling:
// estimate the I-cache miss ratio of each workload from 50 sampled
// windows and compare against complete-stream simulation; the paper
// found the error to be under 10%.
func samplingExperiment(opt Options) (Result, error) {
	ic := area.CacheConfig{CapacityBytes: 8 << 10, LineWords: 4, Assoc: 1}
	plan := sampling.Plan{Samples: 50, WindowRefs: 40_000, GapRefs: 80_000, Seed: 0x5a317}
	fullRefs := opt.refs(6_000_000)

	// Full-trace reference values.
	specs := workload.All()
	full, err := sweepSuite(osmodel.Mach, specs, sweepPlan{icache: []area.CacheConfig{ic}}, fullRefs, opt, runtime.NumCPU())
	if err != nil {
		return Result{}, err
	}

	t := report.NewTable("Trace-sampling accuracy, 8-KB direct-mapped I-cache under Mach",
		"Workload", "Sampled miss ratio", "CI95 rel", "Full-trace miss ratio", "Rel error")
	worst := 0.0
	for w, spec := range specs {
		// Sampled estimate.
		c := cache.New(cache.Config{CacheConfig: ic})
		target := &sampling.CacheTarget{Access: func(r trace.Ref) (bool, bool) {
			if r.Kind != trace.IFetch {
				return false, false
			}
			return c.Access(vm.CacheKey(r.Addr, r.ASID), false), true
		}}
		est, err := sampling.Run(plan, osmodel.NewSystem(osmodel.Mach, spec), target)
		if err != nil {
			return Result{}, err
		}

		ref := stats.Ratio(full[w].iMiss[0], full[w].instrs)
		relErr := stats.RelativeError(est.Mean, ref)
		if relErr > worst {
			worst = relErr
		}
		t.Row(spec.Name, fmt.Sprintf("%.4f", est.Mean), fmt.Sprintf("%.1f%%", est.RelErr95*100),
			fmt.Sprintf("%.4f", ref), fmt.Sprintf("%.1f%%", relErr*100))
	}
	return Result{
		Text: t.String(),
		Notes: []string{
			fmt.Sprintf("worst-case relative error %.1f%% (paper's validation bound: under 10%%)", worst*100),
			"50 samples per workload, following Laha et al.; windows prime the cache before counting (cold-start handling)",
		},
	}, nil
}
