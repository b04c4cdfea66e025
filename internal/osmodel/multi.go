package osmodel

import (
	"fmt"

	"onchip/internal/telemetry"
	"onchip/internal/trace"
)

// Multi time-slices several workloads on one simulated machine, the
// multiprogramming the paper's traces contain ("the sample traces
// include multiprogramming and operating system references", Section 3).
// Each workload runs in its own application address space; the X server,
// the BSD server and the kernel are shared, exactly as on a real system.
// Interleaving adds the cache and TLB interference between processes
// that the paper's Table 3 shows user-only simulation missing.
type Multi struct {
	systems []*System
	// QuantumRefs is the scheduling slice in references (~a few
	// timer ticks).
	QuantumRefs int
	next        int
}

// multiSlots place each co-scheduled application in a distinct ASID
// range so exec() pools do not collide. Each slot also reserves an
// address space for a per-application API server (used by NewMultiAPI).
var multiSlots = []struct{ app, apiServer, execLo, execHi uint8 }{
	{asidApp, asidBSD, 40, 45},
	{10, 11, 46, 51},
	{20, 21, 52, 57},
	{30, 31, 58, 63},
}

// NewMulti builds a multiprogrammed system running the given workloads
// under one OS variant. All workloads share one API server (under Mach,
// one BSD server serves every task, as in the paper's measurements). It
// panics if more than four workloads are given or any spec is invalid.
func NewMulti(v Variant, specs ...WorkloadSpec) *Multi {
	return newMulti(v, false, specs)
}

// NewMultiAPI builds the configuration the paper's title is about but
// its testbed could not run: each workload talks to its *own* API server
// in its own address space (the BSD, DOS, MacOS and VMS servers of the
// paper's Figure 1). Compared with NewMulti, the only change is that the
// server code and data no longer share an address space across
// applications -- the per-server work is identical. Mach only.
func NewMultiAPI(v Variant, specs ...WorkloadSpec) *Multi {
	if v != Mach {
		panic("osmodel: multiple API servers are a Mach (multi-API) structure")
	}
	return newMulti(v, true, specs)
}

func newMulti(v Variant, perAppServer bool, specs []WorkloadSpec) *Multi {
	if len(specs) == 0 || len(specs) > len(multiSlots) {
		panic(fmt.Sprintf("osmodel: NewMulti supports 1-%d workloads, got %d", len(multiSlots), len(specs)))
	}
	m := &Multi{QuantumRefs: 30_000}
	for i, spec := range specs {
		sys := NewSystem(v, spec)
		slot := multiSlots[i]
		sys.app.ASID = slot.app
		sys.execLo, sys.execHi = slot.execLo, slot.execHi
		sys.nextExecASID = slot.execLo
		if perAppServer && sys.bsd != nil {
			sys.bsd.ASID = slot.apiServer
		}
		m.systems = append(m.systems, sys)
	}
	return m
}

// Generate implements trace.Generator: round-robin quanta across the
// workloads until at least n references have been emitted.
func (m *Multi) Generate(n int, sink trace.Sink) int {
	emitted := 0
	for emitted < n {
		sys := m.systems[m.next]
		m.next = (m.next + 1) % len(m.systems)
		emitted += sys.Generate(m.QuantumRefs, sink)
	}
	return emitted
}

// SetMetrics attaches a telemetry registry to every time-sliced system
// (see System.SetMetrics), so counters of the same name add up across
// the workloads. Safe to call with nil.
func (m *Multi) SetMetrics(reg *telemetry.Registry) {
	for _, sys := range m.systems {
		sys.SetMetrics(reg)
	}
}

// Stats returns the per-workload generation statistics.
func (m *Multi) Stats() []GenStats {
	out := make([]GenStats, len(m.systems))
	for i, sys := range m.systems {
		out[i] = sys.statsSnapshot()
	}
	return out
}
