package osmodel

import (
	"onchip/internal/trace"
)

// rng is a small xorshift64* generator. The emitter draws a random
// number per emitted instruction, so this must be cheap and, unlike
// math/rand, allocation-free and trivially seedable per run.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// chance returns true with probability pct/100.
func (r *rng) chance(pct int) bool {
	return r.intn(100) < pct
}

// AddrGen produces data addresses for the reference mix of a code
// sequence.
type AddrGen interface {
	Next(r *rng, store bool) uint32
}

// StackGen models stack traffic: accesses within a small window below
// the stack pointer.
type StackGen struct {
	SP uint32
}

// Next implements AddrGen.
func (g StackGen) Next(r *rng, store bool) uint32 {
	return g.SP - uint32(r.intn(64))*4
}

// WorkingSetGen models heap traffic with both temporal and spatial
// locality: a hot subset absorbs most references, the remainder spread
// over a cold region, and consecutive references walk short sequential
// runs (array traversals) rather than independent random words -- the
// spatial locality that makes multi-word cache lines effective for data.
type WorkingSetGen struct {
	Base      uint32
	HotBytes  uint32
	ColdBytes uint32
	HotPct    int // percentage of references that go to the hot subset

	pos uint32 // current run position
	run int    // words left in the current sequential run
}

// Next implements AddrGen.
func (g *WorkingSetGen) Next(r *rng, store bool) uint32 {
	if g.run > 0 {
		g.run--
		g.pos += 4
		return g.pos
	}
	g.run = 3 + r.intn(10) // runs of 4-13 words
	if g.ColdBytes == 0 || r.chance(g.HotPct) {
		g.pos = g.Base + uint32(r.intn(int(g.HotBytes)))&^3
	} else {
		g.pos = g.Base + g.HotBytes + uint32(r.intn(int(g.ColdBytes)))&^3
	}
	return g.pos
}

// MixGen splits references between two generators.
type MixGen struct {
	A, B AddrGen
	APct int // percentage routed to A
}

// Next implements AddrGen.
func (g MixGen) Next(r *rng, store bool) uint32 {
	if r.chance(g.APct) {
		return g.A.Next(r, store)
	}
	return g.B.Next(r, store)
}

// DataMix describes how many data references a stretch of code issues:
// LoadPct/StorePct are per-instruction percentages (MIPS integer code
// averages roughly 20% loads, 10% stores).
type DataMix struct {
	LoadPct  int
	StorePct int
	Gen      AddrGen
}

// DefaultMix is the generic instruction mix used for OS and application
// code when nothing more specific applies.
func DefaultMix(gen AddrGen) DataMix {
	return DataMix{LoadPct: 20, StorePct: 10, Gen: gen}
}

// emitBatch is the emitter's internal buffer size for batch-capable
// sinks: large enough to amortize the per-batch dispatch and the sweep
// engine's fan-out, small enough to stay cache-resident (1024 refs =
// 8 KB).
const emitBatch = 1024

// Emitter turns code-walk primitives into a reference stream. It tracks
// the current address-space identifier and privilege mode, and counts
// references so the driver can stop at a target length.
//
// When the sink implements trace.BatchSink, references are buffered and
// delivered in batches of emitBatch (plus a flush at the end of each
// Run slice), amortizing interface dispatch; the sequence each sink
// observes is identical to the unbatched path.
type Emitter struct {
	sink  trace.Sink
	batch trace.BatchSink // non-nil iff sink implements BatchSink
	buf   []trace.Ref
	rng   *rng

	asid uint8
	mode trace.Mode

	emitted uint64
	instrs  uint64
	// perASIDInstrs records where execution time goes, for the
	// user/kernel/server time-split calibration (Section 4 of the
	// paper: mpeg_play spends 40% in the task, 25% kernel, 30% BSD
	// server, 5% X server). Indexed by ASID: every user-mode fetch
	// bumps it, so an array beats a map.
	perASIDInstrs [256]uint64
	kernelInstrs  uint64
}

// NewEmitter builds an emitter over sink with a deterministic seed.
func NewEmitter(sink trace.Sink, seed uint64) *Emitter {
	e := &Emitter{rng: newRNG(seed)}
	e.SetSink(sink)
	return e
}

// SetSink redirects the stream to a new sink, flushing any buffered
// references to the old one first so each sink sees a clean cut.
func (e *Emitter) SetSink(sink trace.Sink) {
	e.Flush()
	e.sink = sink
	if b, ok := sink.(trace.BatchSink); ok {
		e.batch = b
		if e.buf == nil {
			e.buf = make([]trace.Ref, 0, emitBatch)
		}
	} else {
		e.batch = nil
	}
}

// Flush delivers any buffered references to the sink. Generators call
// it at the end of each Run slice so the sink is complete when
// Generate returns.
func (e *Emitter) Flush() {
	if len(e.buf) > 0 {
		e.batch.Refs(e.buf)
		e.buf = e.buf[:0]
	}
}

// Emitted returns the number of references emitted so far.
func (e *Emitter) Emitted() uint64 { return e.emitted }

// Instructions returns the number of instruction fetches emitted.
func (e *Emitter) Instructions() uint64 { return e.instrs }

// InstrsByASID exposes the per-address-space user-mode instruction
// counts, indexed by ASID.
func (e *Emitter) InstrsByASID() *[256]uint64 { return &e.perASIDInstrs }

// KernelInstrs returns instructions executed in kernel mode.
func (e *Emitter) KernelInstrs() uint64 { return e.kernelInstrs }

// SetContext switches the current ASID and mode (a context switch or
// privilege transition).
func (e *Emitter) SetContext(asid uint8, mode trace.Mode) {
	e.asid = asid
	e.mode = mode
}

// Context returns the current ASID and mode.
func (e *Emitter) Context() (uint8, trace.Mode) { return e.asid, e.mode }

func (e *Emitter) emit(kind trace.Kind, addr uint32) {
	r := trace.Ref{Addr: addr, ASID: e.asid, Kind: kind, Mode: e.mode}
	if e.batch != nil {
		e.buf = append(e.buf, r)
		if len(e.buf) == cap(e.buf) {
			e.batch.Refs(e.buf)
			e.buf = e.buf[:0]
		}
	} else {
		e.sink.Ref(r)
	}
	e.emitted++
}

// IFetch emits one instruction fetch.
func (e *Emitter) IFetch(addr uint32) {
	e.emit(trace.IFetch, addr)
	e.instrs++
	if e.mode == trace.Kernel {
		e.kernelInstrs++
	} else {
		e.perASIDInstrs[e.asid]++
	}
}

// Load emits one data read.
func (e *Emitter) Load(addr uint32) { e.emit(trace.Load, addr) }

// Store emits one data write.
func (e *Emitter) Store(addr uint32) { e.emit(trace.Store, addr) }

// Seq walks `instrs` sequential instructions starting at base, issuing
// data references per mix. It models straight-line code: service
// invocation paths, dispatch code, handler bodies.
func (e *Emitter) Seq(base uint32, instrs int, mix DataMix) {
	pc := base
	for i := 0; i < instrs; i++ {
		e.IFetch(pc)
		pc += 4
		if mix.Gen != nil {
			p := e.rng.intn(100)
			if p < mix.LoadPct {
				e.Load(mix.Gen.Next(e.rng, false))
			} else if p < mix.LoadPct+mix.StorePct {
				e.Store(mix.Gen.Next(e.rng, true))
			}
		}
	}
}

// Loop executes a loop body of bodyInstrs instructions iters times,
// starting at base. It models hot compute kernels: the instruction
// stream revisits the same small code footprint.
func (e *Emitter) Loop(base uint32, bodyInstrs, iters int, mix DataMix) {
	for i := 0; i < iters; i++ {
		e.Seq(base, bodyInstrs, mix)
	}
}

// Copy models a word-copy loop moving n bytes from src to dst: per word,
// two loop instructions, one load and one store. This is the bcopy at
// the heart of read/write system calls, IPC message transfer, and
// frame-buffer updates.
func (e *Emitter) Copy(loopPC, dst, src uint32, n int) {
	words := (n + 3) / 4
	for w := 0; w < words; w++ {
		off := uint32(w * 4)
		body := uint32(w%4) * 8 // 8-instruction loop body, revisited
		e.IFetch(loopPC + body)
		e.Load(src + off)
		e.IFetch(loopPC + body + 4)
		e.Store(dst + off)
	}
}

// Walk models executing real code through a region of regionBytes
// starting at base: short sequential runs of 6-14 instructions separated
// by taken branches that hop forward within the neighborhood of the
// current position (calls, loop exits, error checks). Real instruction
// streams branch every 5-10 instructions, which is what limits the
// usable I-cache line size -- the paper's CPI plots turn up at 16-word
// lines because fetching beyond the next branch target wastes refill
// cycles. The offset parameter selects the entry point (callers pin it
// per service so repeated invocations re-execute the same path).
func (e *Emitter) Walk(base uint32, regionBytes uint32, offset uint32, instrs int, mix DataMix) {
	if regionBytes == 0 {
		return
	}
	pc := base + offset%regionBytes&^3
	run := 0
	for i := 0; i < instrs; i++ {
		if run == 0 {
			run = 6 + e.rng.intn(9)
			if i > 0 {
				// Taken branch: hop 1-16 lines ahead (forward-biased,
				// like fall-through-with-calls code), wrapping within
				// the region.
				pc += uint32(32 + e.rng.intn(16)*32)
			}
			for pc >= base+regionBytes {
				pc -= regionBytes
			}
		}
		run--
		e.IFetch(pc)
		pc += 4
		if pc >= base+regionBytes {
			pc = base
		}
		if mix.Gen != nil {
			p := e.rng.intn(100)
			if p < mix.LoadPct {
				e.Load(mix.Gen.Next(e.rng, false))
			} else if p < mix.LoadPct+mix.StorePct {
				e.Store(mix.Gen.Next(e.rng, true))
			}
		}
	}
}
