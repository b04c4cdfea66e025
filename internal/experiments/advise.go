package experiments

import (
	"fmt"
	"sort"
	"strings"

	"onchip/internal/area"
	"onchip/internal/osmodel"
	"onchip/internal/search"
	"onchip/internal/sig"
	"onchip/internal/workload"
)

// adviseVersion participates in every request signature, so any change
// to the advise pipeline's semantics (parameterization, response
// shape) re-keys cached results instead of serving stale ones.
// Version 2 added the Space field (and big-space pruned routing).
const adviseVersion = 2

// AdviseRequest parameterizes one allocation-advice run: the question
// "given this area budget, OS personality and workload mix, which
// on-chip configurations are optimal?" served by the advisor daemon.
// The zero value of each field selects the paper's default, so an
// empty request reproduces the Table 6 arrangement.
type AdviseRequest struct {
	// OS is the personality ("Mach" or "Ultrix", case-insensitive);
	// empty selects Mach, the paper's Table 6/7 subject.
	OS string `json:"os,omitempty"`
	// Workloads names the mix (a subset of the Table 2 suite); empty
	// selects the full suite.
	Workloads []string `json:"workloads,omitempty"`
	// Refs is the simulated references per workload; zero selects the
	// experiments' default sweep scale.
	Refs int `json:"refs,omitempty"`
	// BudgetRBE is the on-chip area budget; zero selects the paper's
	// 250,000 rbes.
	BudgetRBE float64 `json:"budget_rbe,omitempty"`
	// MaxCacheAssoc restricts cache associativity (2 reproduces the
	// Table 7 space); zero leaves the space unrestricted.
	MaxCacheAssoc int `json:"max_cache_assoc,omitempty"`
	// Top is the number of ranked allocations returned; zero selects 10
	// (the tables' depth).
	Top int `json:"top,omitempty"`
	// Space selects the design space: "table5" (empty selects it) is
	// the paper's grid, enumerated exhaustively; "big" is the
	// >=1M-triple production space, routed through the pruned search
	// with the simulators still sweeping only the Table 5 grid and
	// off-grid configurations priced by the power-law miss model.
	Space string `json:"space,omitempty"`
}

// Normalize validates the request and canonicalizes it in place --
// defaults filled, OS case-folded, workloads sorted and deduplicated --
// so that equivalent requests produce identical signatures and
// byte-identical responses. maxRefs caps the per-workload scale a
// single request may demand (0 = no cap); the advisor sets it so one
// request cannot monopolize the daemon.
func (r *AdviseRequest) Normalize(maxRefs int) error {
	if _, err := parseVariant(r.OS); err != nil {
		return err
	}
	v, _ := parseVariant(r.OS)
	r.OS = v.String()
	if len(r.Workloads) == 0 {
		r.Workloads = workload.Names()
		sort.Strings(r.Workloads)
	} else {
		seen := map[string]bool{}
		var ws []string
		for _, name := range r.Workloads {
			spec, err := workload.ByName(name)
			if err != nil {
				return err
			}
			if !seen[spec.Name] {
				seen[spec.Name] = true
				ws = append(ws, spec.Name)
			}
		}
		sort.Strings(ws)
		r.Workloads = ws
	}
	if r.Refs == 0 {
		r.Refs = defaultSweepRefs
	}
	if r.Refs < 1000 {
		return fmt.Errorf("advise: refs %d below the 1000-reference floor", r.Refs)
	}
	if maxRefs > 0 && r.Refs > maxRefs {
		return fmt.Errorf("advise: refs %d over this server's %d cap", r.Refs, maxRefs)
	}
	if r.BudgetRBE == 0 {
		r.BudgetRBE = area.BudgetRBE
	}
	if r.BudgetRBE < 0 {
		return fmt.Errorf("advise: negative budget %v", r.BudgetRBE)
	}
	switch r.MaxCacheAssoc {
	case 0, 1, 2, 4, 8:
	default:
		return fmt.Errorf("advise: max_cache_assoc %d not in {0,1,2,4,8}", r.MaxCacheAssoc)
	}
	if r.Top == 0 {
		r.Top = 10
	}
	if r.Top < 1 || r.Top > 1000 {
		return fmt.Errorf("advise: top %d outside [1, 1000]", r.Top)
	}
	switch strings.ToLower(strings.TrimSpace(r.Space)) {
	case "", "table5":
		r.Space = "table5"
	case "big":
		r.Space = "big"
	default:
		return fmt.Errorf("advise: unknown space %q (want table5 or big)", r.Space)
	}
	return nil
}

// Signature content-addresses the normalized request with the FNV-64a
// signature idiom of internal/sig. Two
// requests with equal signatures provably ask for the same sweep, so
// the advisor keys its result cache and singleflight dedup on it.
// Call only after Normalize.
func (r AdviseRequest) Signature() string {
	h := sig.New()
	h.Put("advise", adviseVersion, r.OS, len(r.Workloads))
	for _, w := range r.Workloads {
		h.Put(w)
	}
	h.Put(r.Refs, r.BudgetRBE, r.MaxCacheAssoc, r.Top, r.Space)
	return h.String()
}

// RankedAllocation is one row of the advisor's answer: Table 6/7's
// shape as structured data.
type RankedAllocation struct {
	Rank    int     `json:"rank"`
	TLB     string  `json:"tlb"`
	ICache  string  `json:"icache"`
	DCache  string  `json:"dcache"`
	AreaRBE float64 `json:"area_rbe"`
	CPI     float64 `json:"cpi"`
}

// AdviseResponse is the advisor's answer. Its JSON rendering contains
// no timestamps or run-local state, so identical requests marshal to
// byte-identical bodies -- the property the result cache, singleflight
// dedup, and the chaos harness's correctness oracle all rest on.
type AdviseResponse struct {
	Signature string `json:"signature"`
	// Request echoes the normalized parameters the answer is for.
	Request AdviseRequest `json:"request"`
	// Feasible is the number of allocations within the budget. Under
	// the big-space pruned search it is the number of allocations
	// returned (at most Top): the engine only materializes the top of
	// the ranking, never the full feasible set.
	Feasible int `json:"feasible"`
	// Allocations holds the Top best allocations by ascending CPI.
	Allocations []RankedAllocation `json:"allocations"`
}

// Advise runs the full pipeline for one normalized request: the fused
// model-building sweep over the requested OS and workload mix, then
// the budgeted enumeration, returning the ranked allocations. Unlike
// the table experiments it is strict about degradation: if any
// workload sweep fails (injected faults included) the whole request
// errors rather than silently answering from a partial model -- the
// advisor maps that to a retryable 503, and the chaos harness's
// byte-identity oracle only ever sees non-degraded answers.
func Advise(req AdviseRequest, opt Options) (*AdviseResponse, error) {
	v, err := parseVariant(req.OS)
	if err != nil {
		return nil, err
	}
	var specs []osmodel.WorkloadSpec
	for _, name := range req.Workloads {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	// The simulators always sweep the Table 5 grid; a big-space request
	// widens only the search (searchPlan), which also keeps one caller
	// from monopolizing the daemon with an exhaustive scan of millions
	// of triples.
	grid := search.Table5()
	grid.MaxCacheAssoc = req.MaxCacheAssoc
	measured, failed, err := buildMeasuredModel(v, specs, grid, req.Refs, opt)
	if err != nil {
		return nil, fmt.Errorf("advise: model-building sweep: %w", err)
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("advise: degraded model (%d workload sweep(s) failed: %s)",
			len(failed), strings.Join(failed, "; "))
	}
	space, model, searchOpts := searchPlan(req.Space == "big", grid, measured, req.Top)
	searchOpts = append(searchOpts, search.WithContext(opt.ctx()))
	allocs, err := search.EnumerateE(space, area.Default(), req.BudgetRBE, model, searchOpts...)
	if err != nil {
		return nil, fmt.Errorf("advise: enumeration: %w", err)
	}
	resp := &AdviseResponse{
		Signature: req.Signature(),
		Request:   req,
		Feasible:  len(allocs),
	}
	for i, a := range search.Top(allocs, req.Top) {
		resp.Allocations = append(resp.Allocations, RankedAllocation{
			Rank:    i + 1,
			TLB:     a.TLB.String(),
			ICache:  a.ICache.String(),
			DCache:  a.DCache.String(),
			AreaRBE: a.AreaRBE,
			CPI:     a.CPI,
		})
	}
	return resp, nil
}

// parseVariant maps a request's OS field to the osmodel variant.
func parseVariant(s string) (osmodel.Variant, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "mach", "mach3.0", "mach3":
		return osmodel.Mach, nil
	case "ultrix":
		return osmodel.Ultrix, nil
	}
	return 0, fmt.Errorf("advise: unknown OS %q (want Mach or Ultrix)", s)
}
