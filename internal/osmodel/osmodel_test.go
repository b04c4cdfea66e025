package osmodel

import (
	"testing"
	"time"

	"onchip/internal/trace"
	"onchip/internal/vm"
)

// testSpec is a small workload used throughout the package tests.
func testSpec() WorkloadSpec {
	return WorkloadSpec{
		Name:          "test",
		Seed:          42,
		ComputeInstrs: 2000,
		TextBytes:     64 << 10,
		HotLoopBytes:  2 << 10,
		ColdCodePct:   5,
		DataBytes:     128 << 10,
		HotDataBytes:  4 << 10,
		BufBytes:      64 << 10,
		Calls: []CallMix{
			{Call: Call{Svc: SvcRead, Bytes: 2048}, Weight: 3},
			{Call: Call{Svc: SvcWrite, Bytes: 2048}, Weight: 2},
			{Call: Call{Svc: SvcStat}, Weight: 1},
		},
		FrameBytes:    4096,
		CallsPerFrame: 4,
		OtherCPI:      0.1,
		FullRunInstrs: 1e8,
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []func(*WorkloadSpec){
		func(w *WorkloadSpec) { w.ComputeInstrs = 0 },
		func(w *WorkloadSpec) { w.HotLoopBytes = 0 },
		func(w *WorkloadSpec) { w.HotLoopBytes = w.TextBytes + 1 },
		func(w *WorkloadSpec) { w.DataBytes = 0 },
		func(w *WorkloadSpec) { w.Calls = nil },
		func(w *WorkloadSpec) { w.CallsPerFrame = 0 },
	}
	for i, mutate := range bad {
		w := testSpec()
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("mutation %d: invalid spec accepted", i)
		}
	}
}

func TestGenerateProducesRequestedVolume(t *testing.T) {
	for _, v := range []Variant{Ultrix, Mach} {
		var c trace.Counter
		sys := NewSystem(v, testSpec())
		n := sys.Generate(100_000, &c)
		if n < 100_000 {
			t.Errorf("%v: generated %d refs, want >= 100000", v, n)
		}
		if uint64(n) != c.Total {
			t.Errorf("%v: reported %d, sink saw %d", v, n, c.Total)
		}
		if c.Instructions() == 0 || c.ByKind[trace.Load] == 0 || c.ByKind[trace.Store] == 0 {
			t.Errorf("%v: stream missing a reference kind: %+v", v, c.ByKind)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	run := func() []trace.Ref {
		var refs []trace.Ref
		NewSystem(Mach, testSpec()).Generate(20_000, trace.SinkFunc(func(r trace.Ref) {
			refs = append(refs, r)
		}))
		return refs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// A non-positive count emits nothing and returns at once; a negative
// one must not wrap to a target of about 2^64 references.
func TestNonPositiveCountReturnsAtOnce(t *testing.T) {
	for _, n := range []int{0, -5} {
		sys := NewSystem(Mach, testSpec())
		var c trace.Counter
		done := make(chan [2]uint64, 1)
		go func() {
			got := sys.Generate(n, &c)
			st := sys.Run(n, &c)
			done <- [2]uint64{uint64(got), st.Refs}
		}()
		select {
		case r := <-done:
			if r[0] != 0 || r[1] != 0 || c.Total != 0 {
				t.Errorf("n=%d: Generate emitted %d, Run reports %d refs, sink saw %d; want 0", n, r[0], r[1], c.Total)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("n=%d: Generate and Run still running after 5s", n)
		}
	}
}

func TestGenerateContinuesAcrossCalls(t *testing.T) {
	sys := NewSystem(Ultrix, testSpec())
	var all []trace.Ref
	sink := trace.SinkFunc(func(r trace.Ref) { all = append(all, r) })
	sys.Generate(10_000, sink)
	first := len(all)
	sys.Generate(10_000, sink)
	if len(all) <= first {
		t.Error("second Generate produced nothing")
	}
}

// The structural difference between the systems: Mach streams must
// include user-level BSD server activity and a distinct emulation
// library region; Ultrix streams must not.
func TestMachUsesServerAndEmulator(t *testing.T) {
	seenBSD := false
	seenEmul := false
	NewSystem(Mach, testSpec()).Generate(200_000, trace.SinkFunc(func(r trace.Ref) {
		if r.ASID == asidBSD && r.Mode == trace.User {
			seenBSD = true
		}
		if r.Addr >= vm.EmulatorBase && r.Addr < vm.EmulatorBase+0x10000 {
			seenEmul = true
		}
	}))
	if !seenBSD {
		t.Error("Mach stream has no BSD server references")
	}
	if !seenEmul {
		t.Error("Mach stream has no emulation library references")
	}

	NewSystem(Ultrix, testSpec()).Generate(200_000, trace.SinkFunc(func(r trace.Ref) {
		if r.ASID == asidBSD && r.Mode == trace.User {
			t.Fatal("Ultrix stream contains BSD server references")
		}
	}))
}

// Mach's invocation path must be an order of magnitude longer than
// Ultrix's (the paper: <100 versus ~1000 + ~850 instructions).
func TestInvocationPathLengths(t *testing.T) {
	if UltrixInvocationInstrs >= 100 {
		t.Errorf("Ultrix invocation = %d instructions, paper says < 100", UltrixInvocationInstrs)
	}
	if MachCallPathInstrs < 800 || MachCallPathInstrs > 1200 {
		t.Errorf("Mach call path = %d instructions, paper says ~1000", MachCallPathInstrs)
	}
	if MachReturnPathInstrs < 650 || MachReturnPathInstrs > 1050 {
		t.Errorf("Mach return path = %d instructions, paper says ~850", MachReturnPathInstrs)
	}
}

// Per-call kernel+server overhead measured from the generated streams:
// Mach must execute far more non-application instructions per OS call.
func TestMachOverheadPerCall(t *testing.T) {
	measure := func(v Variant) float64 {
		sys := NewSystem(v, testSpec())
		g := sys.Run(300_000, trace.Discard)
		os := g.Instrs - g.AppInstrs
		return float64(os) / float64(g.Calls)
	}
	// The shared 4.3BSD service bodies dominate both systems' per-call
	// OS work; Mach's RPC machinery adds roughly the ~1850-instruction
	// invocation paths on top.
	ult, mach := measure(Ultrix), measure(Mach)
	if mach < 1.5*ult {
		t.Errorf("OS instructions per call: Mach %.0f, Ultrix %.0f; want Mach substantially higher", mach, ult)
	}
}

func TestGenStatsPercentages(t *testing.T) {
	sys := NewSystem(Mach, testSpec())
	g := sys.Run(200_000, trace.Discard)
	sum := g.AppPct() + g.KernelPct() + g.BSDPct() + g.XPct()
	if sum < 99 || sum > 101 {
		t.Errorf("context percentages sum to %.1f, want ~100", sum)
	}
	if g.Calls == 0 || g.Frames == 0 {
		t.Errorf("stats missing activity: %+v", g)
	}
}

func TestExecRollsASID(t *testing.T) {
	spec := testSpec()
	spec.ExecEvery = 5
	sys := NewSystem(Mach, spec)
	before := sys.AppASID()
	sys.Generate(400_000, trace.Discard)
	if sys.AppASID() == before {
		t.Error("exec never changed the application ASID")
	}
}

func TestIsServerASID(t *testing.T) {
	if !IsServerASID(asidX) || !IsServerASID(asidBSD) || !IsServerASID(asidPager) {
		t.Error("server ASIDs not recognized")
	}
	if IsServerASID(asidApp) || IsServerASID(asidExec0) {
		t.Error("application ASIDs misclassified as servers")
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown variant")
		}
	}()
	NewSystem(Variant(9), testSpec())
}

func TestInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid spec")
		}
	}()
	spec := testSpec()
	spec.Calls = nil
	NewSystem(Ultrix, spec)
}

// Kernel-mode references must come from kernel segments or user space
// (copyin/copyout); user-mode instruction fetches must never target
// kernel segments.
func TestModeSegmentConsistency(t *testing.T) {
	NewSystem(Mach, testSpec()).Generate(200_000, trace.SinkFunc(func(r trace.Ref) {
		if r.Kind == trace.IFetch && r.Mode == trace.User && vm.KernelAddr(r.Addr) {
			t.Fatalf("user-mode ifetch from kernel segment: %v", r)
		}
	}))
}

func TestEmitterPrimitives(t *testing.T) {
	var refs []trace.Ref
	e := NewEmitter(trace.SinkFunc(func(r trace.Ref) { refs = append(refs, r) }), 1)
	e.SetContext(3, trace.Kernel)
	e.Seq(0x80000000, 10, DataMix{})
	if len(refs) != 10 {
		t.Fatalf("Seq emitted %d refs, want 10", len(refs))
	}
	for i, r := range refs {
		if r.Kind != trace.IFetch || r.Addr != 0x80000000+uint32(i*4) || r.ASID != 3 || r.Mode != trace.Kernel {
			t.Fatalf("ref %d = %v", i, r)
		}
	}

	refs = refs[:0]
	e.Copy(0x80001000, 0x2000, 0x1000, 64)
	// 16 words: 2 ifetches + 1 load + 1 store each.
	var c trace.Counter
	for _, r := range refs {
		c.Ref(r)
	}
	if c.ByKind[trace.IFetch] != 32 || c.ByKind[trace.Load] != 16 || c.ByKind[trace.Store] != 16 {
		t.Errorf("copy mix = %v", c.ByKind)
	}

	refs = refs[:0]
	e.Loop(0x400000, 8, 5, DataMix{})
	if len(refs) != 40 {
		t.Errorf("Loop emitted %d refs, want 40", len(refs))
	}
}

func TestWalkStaysInRegion(t *testing.T) {
	e := NewEmitter(trace.SinkFunc(func(r trace.Ref) {
		if r.Kind == trace.IFetch && (r.Addr < 0x400000 || r.Addr >= 0x400000+8192) {
			t.Fatalf("walk escaped region: %08x", r.Addr)
		}
	}), 7)
	e.Walk(0x400000, 8192, 12345, 5000, DataMix{})
}

func TestWorkingSetGenBounds(t *testing.T) {
	g := &WorkingSetGen{Base: 0x1000, HotBytes: 4096, ColdBytes: 8192, HotPct: 50}
	r := newRNG(3)
	for i := 0; i < 5000; i++ {
		a := g.Next(r, false)
		if a < 0x1000 || a >= 0x1000+4096+8192+64 {
			t.Fatalf("address %08x outside working set", a)
		}
	}
}

func TestRegionAndCursor(t *testing.T) {
	r := Region{Base: 0x1000, Size: 0x100}
	if r.End() != 0x1100 {
		t.Errorf("End = %#x", r.End())
	}
	c := cursor{reg: r}
	a := c.next(0x80)
	b := c.next(0x80)
	w := c.next(0x80) // wraps
	if a != 0x1000 || b != 0x1080 || w != 0x1000 {
		t.Errorf("cursor sequence = %#x %#x %#x", a, b, w)
	}
	var empty cursor
	if empty.next(16) != 0 {
		t.Error("empty cursor should return base 0")
	}
}

func TestProcessBufPaging(t *testing.T) {
	p := newProcess("p", 9, 4096, 1024, 8192, 8192)
	peek := p.PeekBufPage(4096)
	got := p.NextBufPage(4096)
	if peek != got {
		t.Errorf("peek %#x != next %#x", peek, got)
	}
	second := p.NextBufPage(4096)
	if second == got {
		t.Error("cursor did not advance")
	}
	wrapped := p.NextBufPage(4096)
	if wrapped != got {
		t.Errorf("cursor did not wrap: %#x, want %#x", wrapped, got)
	}
}

func TestVariantString(t *testing.T) {
	if Ultrix.String() != "Ultrix" || Mach.String() != "Mach" {
		t.Error("variant strings wrong")
	}
}

func TestServiceString(t *testing.T) {
	if SvcRead.String() != "read" || SvcExec.String() != "exec" {
		t.Error("service strings wrong")
	}
	if Service(200).String() == "" {
		t.Error("unknown service should still render")
	}
}
