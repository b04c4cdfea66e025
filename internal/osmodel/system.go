// Package osmodel is a behavioral model of the two operating systems the
// paper measures -- Ultrix (single-API, services in the kernel) and Mach
// 3.0 (multiple-API, services in user-level servers reached by RPC) --
// executing the paper's workload suite and emitting the full memory
// reference stream, operating-system activity included.
//
// It substitutes for the paper's hardware-captured DECstation traces by
// modeling the mechanisms the paper identifies as responsible for the
// differences between the two systems (Section 4): the <100-instruction
// Ultrix system-call round trip versus Mach's ~1000-instruction call and
// ~850-instruction return paths through the emulation library, the
// kernel IPC path and the BSD server; services and buffer caches moving
// from unmapped kernel segments into mapped user-level address spaces;
// extra address spaces and page tables; and out-of-line VM transfer for
// large messages. Cache and TLB behaviour differences between Ultrix and
// Mach then *emerge* from the simulated reference streams rather than
// being programmed in.
package osmodel

import (
	"fmt"

	"onchip/internal/telemetry"
	"onchip/internal/trace"
	"onchip/internal/vm"
)

// Variant selects the modeled operating system.
type Variant uint8

const (
	// Ultrix models the single-API system: services in the kernel.
	Ultrix Variant = iota
	// Mach models the multiple-API system: emulation library, RPC
	// through the kernel, user-level BSD and X servers.
	Mach
)

func (v Variant) String() string {
	if v == Mach {
		return "Mach"
	}
	return "Ultrix"
}

// WorkloadSpec parameterizes one benchmark: its compute/OS mix, code and
// data footprints, display traffic, and nominal full-run length.
type WorkloadSpec struct {
	Name string
	Seed uint64

	// ComputeInstrs is the mean user instruction count between OS
	// calls.
	ComputeInstrs int
	// TextBytes is the application code footprint; HotLoopBytes the
	// inner compute kernel revisited most of the time; ColdCodePct the
	// percentage of compute phases that take a cold path through the
	// full text instead.
	TextBytes    int
	HotLoopBytes int
	ColdCodePct  int
	// DataBytes is the heap footprint, HotDataBytes its hot subset,
	// BufBytes the streaming I/O buffer region.
	DataBytes    int
	HotDataBytes int
	BufBytes     int

	// Calls is the OS service mix.
	Calls []CallMix
	// FrameBytes, when non-zero, is the display payload pushed to the
	// X server every CallsPerFrame OS calls.
	FrameBytes    int
	CallsPerFrame int

	// ExecEvery, when non-zero, overlays the task with a fresh address
	// space every that-many OS calls (mab's compile phases). exec is
	// scheduled rather than drawn from the mix because its rate is far
	// below the per-call service rates.
	ExecEvery int

	// OtherCPI is the non-memory stall density (integer/FP interlocks)
	// of the application, in cycles per instruction; it feeds the
	// machine model's "Other" CPI category.
	OtherCPI float64

	// FullRunInstrs is the nominal instruction count of the complete
	// benchmark on the DECstation (the paper tuned inputs to 100-200
	// seconds); experiments scale simulated service times by
	// FullRunInstrs / simulated instructions to report absolute
	// seconds.
	FullRunInstrs uint64
}

// Validate checks the spec for the fields the driver divides by.
func (w WorkloadSpec) Validate() error {
	if w.ComputeInstrs <= 0 {
		return fmt.Errorf("osmodel: %s: ComputeInstrs must be positive", w.Name)
	}
	if w.HotLoopBytes <= 0 || w.TextBytes < w.HotLoopBytes {
		return fmt.Errorf("osmodel: %s: need 0 < HotLoopBytes <= TextBytes", w.Name)
	}
	if w.DataBytes <= 0 || w.HotDataBytes <= 0 {
		return fmt.Errorf("osmodel: %s: data footprints must be positive", w.Name)
	}
	if len(w.Calls) == 0 {
		return fmt.Errorf("osmodel: %s: empty call mix", w.Name)
	}
	if w.FrameBytes > 0 && w.CallsPerFrame <= 0 {
		return fmt.Errorf("osmodel: %s: FrameBytes without CallsPerFrame", w.Name)
	}
	return nil
}

// Fixed ASIDs for the core processes; exec() recycles the range above.
const (
	asidApp   = 1
	asidX     = 2
	asidBSD   = 3
	asidPager = 4
	asidExec0 = 5 // first recycled ASID for exec()
	asidMax   = 63
)

// quantumInstrs is the clock-interrupt interval in instructions
// (~256 Hz at DECstation speed).
const quantumInstrs = 50000

// GenStats summarizes where a generated stream spent its time.
type GenStats struct {
	Refs         uint64
	Instrs       uint64
	AppInstrs    uint64
	KernelInstrs uint64
	BSDInstrs    uint64
	XInstrs      uint64
	Calls        uint64
	Frames       uint64
}

// IsServerASID reports whether asid belongs to a user-level OS server
// (the X server, an API server, or the name server) rather than an
// application task. The ASIDs 11/21/31 are the per-application API
// servers of the NewMultiAPI configuration.
func IsServerASID(asid uint8) bool {
	switch asid {
	case asidX, asidBSD, asidPager, 11, 21, 31:
		return true
	}
	return false
}

// Pct returns part/whole as a percentage.
func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// AppPct returns the percentage of instructions in the application task.
func (g GenStats) AppPct() float64 { return pct(g.AppInstrs, g.Instrs) }

// KernelPct returns the percentage of instructions in kernel mode.
func (g GenStats) KernelPct() float64 { return pct(g.KernelInstrs, g.Instrs) }

// BSDPct returns the percentage of instructions in the BSD server.
func (g GenStats) BSDPct() float64 { return pct(g.BSDInstrs, g.Instrs) }

// XPct returns the percentage of instructions in the X server.
func (g GenStats) XPct() float64 { return pct(g.XInstrs, g.Instrs) }

// System is one simulated machine: an OS variant running one workload.
type System struct {
	variant Variant
	spec    WorkloadSpec

	kern *kernelLayout
	app  *Process
	xsrv *Process
	bsd  *Process // Mach only

	em  *Emitter
	rng *rng

	// Service hosting: kernel regions under Ultrix, BSD server regions
	// under Mach.
	host serviceHost

	// Data-traffic cursors.
	mbufCur   cursor // Ultrix network buffers
	kmsgCur   cursor // Mach in-transit messages
	xbufCur   cursor // X server receive buffer
	sharedCur cursor // Mach out-of-line mapped windows (app side)

	kmix   DataMix // kernel stack/static data traffic
	ipcMix DataMix // Mach IPC path traffic (port tables in kseg2)

	nextExecASID uint8
	execLo       uint8
	execHi       uint8
	callCount    uint64
	frameCount   uint64
	pendingX     int // bytes queued for the X server
	lastTick     uint64

	// oolBytes is the Mach out-of-line transfer threshold; payloads
	// strictly larger move by remapping instead of copying.
	oolBytes int
	// nameServer, when non-nil, models Black et al.'s decomposition of
	// the monolithic BSD server: file-system calls first resolve
	// through a separate small-granularity name/authentication server.
	nameServer *Process

	// Telemetry (nil no-ops unless SetMetrics is called): per-service-
	// class invocation and reference counts.
	metricsOn bool
	svcCalls  [nServices]*telemetry.Counter
	svcRefs   [nServices]*telemetry.Counter
}

// cursor streams through a region, wrapping.
type cursor struct {
	reg Region
	off uint32
}

func (c *cursor) next(n uint32) uint32 {
	if c.reg.Size == 0 {
		return c.reg.Base
	}
	if c.off+n > c.reg.Size {
		c.off = 0
	}
	a := c.reg.Base + c.off
	c.off += n
	return a
}

// NewSystem builds a system for the variant and workload. It panics on
// an invalid spec; validate untrusted specs first.
func NewSystem(v Variant, spec WorkloadSpec) *System {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		variant:      v,
		spec:         spec,
		kern:         newKernelLayout(),
		rng:          newRNG(spec.Seed),
		nextExecASID: asidExec0,
		execLo:       asidExec0,
		execHi:       asidMax,
		oolBytes:     oolThreshold,
	}
	s.app = newProcess(spec.Name, asidApp, uint32(spec.TextBytes), uint32(spec.HotLoopBytes),
		uint32(spec.DataBytes), uint32(spec.BufBytes))
	s.xsrv = newProcess("Xserver", asidX, 256<<10, 1<<10, 512<<10, 1<<20)
	s.xbufCur = cursor{reg: s.xsrv.Buf}

	kGen := &WorkingSetGen{Base: s.kern.kdata.Base, HotBytes: 4 << 10,
		ColdBytes: s.kern.kdata.Size - 4<<10, HotPct: 92}
	s.kmix = DefaultMix(MixGen{A: StackGen{SP: s.kern.kstack.End() - 64}, APct: 45, B: kGen})

	switch v {
	case Ultrix:
		// Services and the buffer cache live in the kernel: code in
		// kseg0 (unmapped), buffers in kseg0 data.
		s.host = serviceHost{
			fsCode:   s.kern.fsCode,
			sockCode: s.kern.sockCode,
			bufCache: s.kern.bufCache,
			mix:      s.kmix,
		}
		s.mbufCur = cursor{reg: s.kern.mbufs}
	case Mach:
		// Services live in the user-level BSD server: its code and
		// buffer cache are mapped pages in a separate address space.
		s.bsd = newProcess("bsd_server", asidBSD, 1536<<10, 4<<10, 1<<20, 64<<20)
		s.app.Emul = Region{Base: vm.EmulatorBase, Size: 48 << 10}
		s.host = serviceHost{
			fsCode:   Region{Base: s.bsd.Text.Base + 64<<10, Size: 48 << 10},
			sockCode: Region{Base: s.bsd.Text.Base + 128<<10, Size: 32 << 10},
			bufCache: s.bsd.Buf,
			mix:      s.bsd.dataMix(4 << 10),
		}
		s.kmsgCur = cursor{reg: s.kern.kmsgBuf}
		s.sharedCur = cursor{reg: Region{Base: vm.SharedMapBase, Size: 8 << 20}}
		ipcGen := &WorkingSetGen{Base: s.kern.portTable.Base, HotBytes: 2 << 10,
			ColdBytes: s.kern.portTable.Size - 2<<10, HotPct: 96}
		s.ipcMix = DataMix{LoadPct: 25, StorePct: 10,
			Gen: MixGen{A: StackGen{SP: s.kern.kstack.End() - 64}, APct: 40, B: ipcGen}}
	default:
		panic(fmt.Sprintf("osmodel: unknown variant %d", v))
	}
	return s
}

// Variant returns the modeled operating system.
func (s *System) Variant() Variant { return s.variant }

// SetOOLThreshold overrides the Mach out-of-line transfer threshold in
// bytes: payloads strictly larger move by VM remapping rather than
// copying. Setting it very large disables out-of-line transfer (all
// copies); setting it to 0 forces remapping for every payload -- the
// "more aggressive virtual memory sharing" of Section 4.3, which the
// paper predicts "is likely to shift misses from the I-cache to the
// TLB". Must be called before Generate.
func (s *System) SetOOLThreshold(bytes int) { s.oolBytes = bytes }

// EnableDecomposedServers splits the monolithic BSD server in the style
// of Black et al. (cited in Section 4.1): file-system services first
// resolve through a separate small-granularity name/authentication
// server in its own address space, adding another RPC hop per call.
// Mach only; must be called before Generate.
func (s *System) EnableDecomposedServers() {
	if s.variant != Mach {
		panic("osmodel: decomposed servers are a Mach restructuring")
	}
	s.nameServer = newProcess("name_server", asidPager, 128<<10, 2<<10, 128<<10, 0)
}

// SetMetrics attaches a telemetry registry: every OS service class gets
// an invocation counter and a counter of the memory references its
// invocations emitted (invocation path, service body and payload
// traffic included). Safe to call with nil (telemetry stays off). Must
// be called before Run/Generate for complete counts.
func (s *System) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.metricsOn = true
	for svc := SvcRead; svc < nServices; svc++ {
		s.svcCalls[svc] = reg.Counter("os.calls."+svc.String(), "invocations of the service")
		s.svcRefs[svc] = reg.Counter("os.refs."+svc.String(), "references emitted serving the call")
	}
}

// Spec returns the workload specification.
func (s *System) Spec() WorkloadSpec { return s.spec }

// AppASID returns the application's current address-space identifier
// (exec() changes it).
func (s *System) AppASID() uint8 { return s.app.ASID }

// Generate implements trace.Generator: run the workload until at least
// n references have been emitted into sink and return the number
// actually emitted in this call; n <= 0 emits nothing. Each call
// continues the same system state, so a long stream can be produced in
// slices.
func (s *System) Generate(n int, sink trace.Sink) int {
	before := uint64(0)
	if s.em != nil {
		before = s.em.Emitted()
	}
	s.Run(n, sink)
	return int(s.em.Emitted() - before)
}

// Run is Generate plus the generation statistics snapshot.
func (s *System) Run(n int, sink trace.Sink) GenStats {
	if s.em == nil {
		s.em = NewEmitter(sink, s.spec.Seed|1)
	} else {
		s.em.SetSink(sink)
	}
	target := s.em.Emitted() + uint64(max(n, 0))
	for s.em.Emitted() < target {
		s.computePhase()
		s.maybeTick()
		call := s.drawCall()
		if s.spec.ExecEvery > 0 && s.callCount%uint64(s.spec.ExecEvery) == uint64(s.spec.ExecEvery)-1 {
			call = Call{Svc: SvcExec}
		}
		s.invoke(call)
		s.callCount++
		if s.spec.FrameBytes > 0 && s.callCount%uint64(s.spec.CallsPerFrame) == 0 {
			s.displayFrame()
		}
		s.maybeTick()
	}
	// Deliver any buffered tail so the sink is complete before the
	// caller inspects it (or hands the next slice to a different sink).
	s.em.Flush()
	return s.statsSnapshot()
}

func (s *System) statsSnapshot() GenStats {
	by := s.em.InstrsByASID()
	g := GenStats{
		Refs:         s.em.Emitted(),
		Instrs:       s.em.Instructions(),
		KernelInstrs: s.em.KernelInstrs(),
		XInstrs:      by[asidX],
		Calls:        s.callCount,
		Frames:       s.frameCount,
	}
	if s.bsd != nil {
		g.BSDInstrs = by[asidBSD]
	}
	// The application may have changed ASID across exec()s; sum all
	// non-server user ASIDs.
	for asid, c := range by {
		if asid != asidX && asid != asidBSD && asid != asidPager {
			g.AppInstrs += c
		}
	}
	return g
}

// computePhase runs the application's user-level work between OS calls.
func (s *System) computePhase() {
	s.em.SetContext(s.app.ASID, trace.User)
	instrs := s.spec.ComputeInstrs/2 + s.rng.intn(s.spec.ComputeInstrs)
	mix := s.app.dataMix(uint32(s.spec.HotDataBytes))
	if s.rng.chance(s.spec.ColdCodePct) {
		// Cold path: wander through the full program text.
		s.em.Walk(s.app.Text.Base, s.app.Text.Size, uint32(s.rng.intn(int(s.app.Text.Size))), instrs, mix)
		return
	}
	body := int(s.app.HotLoop.Size) / 4
	iters := instrs / body
	if iters < 1 {
		iters = 1
	}
	s.em.Loop(s.app.HotLoop.Base, body, iters, mix)
}

// pathVariant rotates among three code-path variants per call: real
// service code has multiple branches and helper paths, so the dynamic
// footprint over a window of calls is several times one path's length.
func (s *System) pathVariant() uint32 {
	return uint32(s.callCount%3) * 8192
}

// drawCall picks the next OS call from the weighted mix.
func (s *System) drawCall() Call {
	total := 0
	for _, c := range s.spec.Calls {
		total += c.Weight
	}
	pick := s.rng.intn(total)
	for _, c := range s.spec.Calls {
		if pick < c.Weight {
			return c.Call
		}
		pick -= c.Weight
	}
	return s.spec.Calls[len(s.spec.Calls)-1].Call
}

// invoke dispatches a call through the variant's invocation path.
// Outbound payloads (writes, socket sends) are first produced by the
// application: a store burst filling the buffer, which is where much of
// the paper's write-buffer pressure comes from.
func (s *System) invoke(c Call) {
	if !s.metricsOn {
		s.dispatch(c)
		return
	}
	before := s.em.Emitted()
	s.dispatch(c)
	s.svcCalls[c.Svc].Inc()
	s.svcRefs[c.Svc].Add(s.em.Emitted() - before)
}

func (s *System) dispatch(c Call) {
	if c.Bytes > 0 && (c.Svc == SvcWrite || c.Svc == SvcSockSend) {
		s.appProduce(c.Bytes)
	}
	switch s.variant {
	case Ultrix:
		s.ultrixSyscall(c)
	case Mach:
		s.machSyscall(c)
	}
}

// appProduce models the application filling an output buffer: a tight
// store loop (decode output, file content) with one store per couple of
// instructions.
func (s *System) appProduce(bytes int) {
	s.em.SetContext(s.app.ASID, trace.User)
	dst := s.app.PeekBufPage(uint32(bytes))
	words := bytes / 4
	loop := s.app.HotLoop.Base + s.app.HotLoop.Size/2
	for w := 0; w < words; w++ {
		body := uint32(w%4) * 12
		s.em.IFetch(loop + body)
		s.em.IFetch(loop + body + 4)
		s.em.IFetch(loop + body + 8)
		s.em.Store(dst + uint32(w*4))
	}
}

// maybeTick delivers the clock interrupt when a quantum has elapsed.
func (s *System) maybeTick() {
	if s.em.Instructions()-s.lastTick < quantumInstrs {
		return
	}
	s.lastTick = s.em.Instructions()
	asid, mode := s.em.Context()
	s.em.SetContext(asid, trace.Kernel)
	s.em.Seq(s.kern.clockCode.Base, 250, s.kmix)
	// Every fourth tick the scheduler runs its queues.
	if (s.lastTick/quantumInstrs)%4 == 0 {
		s.em.Seq(s.kern.schedCode.Base, 150, s.kmix)
	}
	s.em.SetContext(asid, mode)
}

// contextSwitch models the kernel switch path onto another process.
func (s *System) contextSwitch(to *Process) {
	asid, _ := s.em.Context()
	s.em.SetContext(asid, trace.Kernel) // switch code runs in kernel mode
	s.em.Seq(s.kern.schedCode.Base, 120, s.kmix)
	s.em.SetContext(to.ASID, trace.User)
}

// displayFrame pushes FrameBytes of rendered output to the X server and
// lets it consume the traffic.
func (s *System) displayFrame() {
	s.frameCount++
	bytes := s.spec.FrameBytes
	s.invoke(Call{Svc: SvcSockSend, Bytes: bytes})
	s.pendingX += bytes
	s.runXServer()
}

// runXServer consumes queued display bytes: protocol handling plus a
// render loop that reads the request data and stores pixels to the
// uncached framebuffer in kseg1.
func (s *System) runXServer() {
	if s.pendingX == 0 {
		return
	}
	bytes := s.pendingX
	s.pendingX = 0
	s.contextSwitch(s.xsrv)
	// Protocol dispatch in the X server's text.
	s.em.Walk(s.xsrv.Text.Base, s.xsrv.Text.Size, uint32(s.frameCount%4)*2048,
		800, s.xsrv.dataMix(4<<10))
	// Render: read the received data, write the framebuffer.
	src := s.xbufCur.next(uint32(bytes))
	fb := s.kern.framebuf.Base + uint32(s.rng.intn(int(s.kern.framebuf.Size/2)))&^3
	s.em.Copy(s.xsrv.HotLoop.Base, fb, src, bytes)
	// Switch back to the application.
	s.em.SetContext(s.xsrv.ASID, trace.Kernel)
	s.em.Seq(s.kern.schedCode.Base, 120, s.kmix)
	s.em.SetContext(s.app.ASID, trace.User)
}
