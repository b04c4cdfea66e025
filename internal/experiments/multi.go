package experiments

import (
	"fmt"

	"onchip/internal/machine"
	"onchip/internal/monitor"
	"onchip/internal/osmodel"
	"onchip/internal/report"
	"onchip/internal/workload"
)

func init() {
	register("ext-multi", "Extension: multiprogramming interference (the effect user-only simulation misses, section 4)", extMulti)
}

// extMulti quantifies inter-process interference: mpeg_play alone versus
// mpeg_play time-sliced with mab on the same machine. Table 3's point is
// that pixie-style user-only simulation misses both OS references *and*
// "interference effects between the different processes that participate
// in the workload"; this experiment isolates the second effect.
func extMulti(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	t := report.NewTable("Multiprogramming interference, DECstation 3100 parameters (Mach)",
		"Condition", "CPI", "TLB CPI", "I-cache CPI", "D-cache CPI")

	// mpeg_play alone, then time-sliced with mab for twice the
	// references on the same machine, still charged mpeg_play's
	// interlock density.
	alone := monitor.Workload(osmodel.Mach, workload.MPEGPlay(), refs, machine.DECstation3100())
	shared := monitor.Multi("mpeg_play + mab", alone.Config, 2*refs, func() *osmodel.Multi {
		return osmodel.NewMulti(osmodel.Mach, workload.MPEGPlay(), workload.MAB())
	})
	rows, err := monitor.MeasureRows(opt.ctx(), []monitor.RowSpec{alone, shared}, opt.Metrics, opt.Tracer)
	if err != nil {
		return Result{}, err
	}
	for i, label := range []string{"mpeg_play alone", "mpeg_play + mab (time-sliced)"} {
		b := rows[i].Breakdown
		t.Row(label, fmt.Sprintf("%.2f", b.CPI),
			fmt.Sprintf("%.3f", b.Comp[machine.CompTLB]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompICache]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompDCache]))
	}

	return Result{
		Text: t.String(),
		Notes: []string{
			"the second workload's footprint displaces cache lines and TLB entries across every",
			"quantum boundary; this interference is invisible to single-process, user-only simulation",
			"(the combined row mixes both workloads' instructions, so compare stall components, not CPI alone)",
		},
	}, nil
}
