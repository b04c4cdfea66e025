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
	register("ext-multiapi", "Extension: one shared API server vs one API server per application (the title's scenario)", extMultiAPI)
}

// extMultiAPI measures the configuration the paper's title names but its
// single-API-server testbed could not: several applications each served
// by their own API server (Figure 1's BSD, DOS, MacOS, VMS servers).
// Both conditions run the same two workloads time-sliced under Mach; the
// only difference is whether their system calls land in one shared
// server address space or in one per application.
func extMultiAPI(opt Options) (Result, error) {
	refs := opt.refs(defaultStallRefs)
	specs := []osmodel.WorkloadSpec{workload.MPEGPlay(), workload.MAB()}

	t := report.NewTable("Shared vs per-application API servers (mpeg_play + mab, Mach, time-sliced)",
		"API servers", "CPI", "TLB CPI", "I-cache CPI", "D-cache CPI")
	// Both rows run twice the references, time-sliced, with no
	// interlock density charged.
	cfg := machine.DECstation3100()
	cfg.IsServerASID = osmodel.IsServerASID
	rows, err := monitor.MeasureRows(opt.ctx(), []monitor.RowSpec{
		monitor.Multi("one shared server", cfg, 2*refs, func() *osmodel.Multi { return osmodel.NewMulti(osmodel.Mach, specs...) }),
		monitor.Multi("one server per app", cfg, 2*refs, func() *osmodel.Multi { return osmodel.NewMultiAPI(osmodel.Mach, specs...) }),
	}, opt.Metrics, opt.Tracer)
	if err != nil {
		return Result{}, err
	}
	for _, row := range rows {
		b := row.Breakdown
		t.Row(row.Workload, fmt.Sprintf("%.2f", b.CPI),
			fmt.Sprintf("%.3f", b.Comp[machine.CompTLB]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompICache]),
			fmt.Sprintf("%.3f", b.Comp[machine.CompDCache]))
	}

	return Result{
		Text: t.String(),
		Notes: []string{
			"with per-application servers the same service code exists in two address spaces: the",
			"shared server's warm code and TLB entries are lost, raising I-cache and TLB pressure --",
			"the direction the paper predicts for systems that actually host several APIs at once",
		},
	}, nil
}
