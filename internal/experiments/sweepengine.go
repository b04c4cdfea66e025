package experiments

import (
	"strconv"
	"sync"
	"sync/atomic"

	"onchip/internal/area"
	"onchip/internal/cheetah"
	"onchip/internal/spans"
	"onchip/internal/trace"
	"onchip/internal/vm"
)

// sweepEngine is the fused fast path of the suite sweep: one pass over
// a workload's reference stream prices every I-stream and D-stream
// cache configuration of the sweep's plan at once. Per batch it translates
// the references exactly once -- instruction fetches into I-stream
// cache keys, cached loads and stores into packed D-stream keys, each
// only when the plan prices that stream -- and
// feeds the shared key slices to the single-pass stack simulators
// (cheetah.Sweep for the I-stream, cheetah.DataSweep for the
// write-policy-aware D-stream). Compared with the original three-pass
// sweep this removes two of the three generation passes, the
// per-reference interface dispatch, and the per-configuration direct
// D-cache simulation, while producing bit-identical miss counts.
//
// In parallel mode the schedulable units are the fused per-line-size
// units of both streams, cheetah.LineSweep and cheetah.DataLine: 6 + 6
// per workload under Table 5 and Table 7 alike. Within each batch the
// pool's workers claim the next unclaimed unit, heaviest first, until
// none is left; every unit observes the full stream in order, so
// results stay byte-identical to the serial path. An engine is reset
// and reused for the next workload of its sweep slot.
type sweepEngine struct {
	i      *cheetah.Sweep
	d      *cheetah.DataSweep
	instrs uint64
	// iOnly and dOnly mark a plan that prices one stream: Refs then
	// translates only that stream's references.
	iOnly, dOnly bool

	// ikeys and dkeys hold the keys translated but not yet run: one
	// Refs call's on a serial engine, on a parallel one those of the
	// calls since the last batch, until together they reach poolBatch.
	ikeys []uint64
	dkeys []uint64
	one   [1]trace.Ref

	// pool, when non-nil, is the worker pool the engine's units run on.
	// The model-building sweep runs one pool for all workloads so cores
	// freed by finished workloads flow to the stragglers; the pool's
	// creator closes it.
	pool *groupPool
	// units lists the engine's simulator units heaviest first, the
	// order in which workers claim them within a batch; next is the
	// index of the next unclaimed unit of the current batch.
	units   []groupUnit
	next    atomic.Int64
	batches int // batches handed to the pool

	batch    sync.WaitGroup // per-batch barrier
	panicMu  sync.Mutex
	panicked any // first captured worker panic, re-raised after the barrier
}

// groupUnit is one schedulable piece of the engine: one I-stream
// LineSweep or one D-stream DataLine (exactly one field is non-nil).
type groupUnit struct {
	i *cheetah.LineSweep
	d *cheetah.DataLine
}

// newSweepEngine builds the fused engine over the I-stream and D-stream
// configurations, either list possibly empty, pricing up to 8 ways. A
// nil pool gives the serial engine.
func newSweepEngine(icache, dcache []area.CacheConfig, pool *groupPool) *sweepEngine {
	e := &sweepEngine{
		i:     cheetah.NewSweep(icache, 8),
		d:     cheetah.NewDataSweep(dcache),
		iOnly: len(dcache) == 0,
		dOnly: len(icache) == 0,
		pool:  pool,
	}
	if pool == nil {
		return e
	}
	// A batch runs as soon as the two streams reach poolBatch keys, so
	// with the emitter's 1024-reference deliveries neither slice
	// outgrows poolBatch+1024 (a trace-cache replay's larger blocks
	// grow them once).
	e.ikeys = make([]uint64, 0, poolBatch+1024)
	e.dkeys = make([]uint64, 0, poolBatch+1024)
	// Roughly heaviest first: a DataLine costs more per reference than
	// a LineSweep of its line size (no early exit, relabel walks), and
	// within a stream the smaller the line, the fewer references the
	// memos absorb; the 1- and 2-word LineSweeps still outweigh the
	// widest-line DataLines (DESIGN.md section 10 has the costs). The
	// lightest units are claimed last and fill in behind the heavy
	// ones, whatever the pool width.
	for _, l := range e.d.Lines() {
		e.units = append(e.units, groupUnit{d: l})
	}
	for _, l := range e.i.Lines() {
		e.units = append(e.units, groupUnit{i: l})
	}
	return e
}

// reset empties every simulator and counter, keeping the storage, so
// the engine can sweep another stream from scratch.
func (e *sweepEngine) reset() {
	e.ikeys, e.dkeys = e.ikeys[:0], e.dkeys[:0]
	e.i.Reset()
	e.d.Reset()
	e.instrs = 0
}

// poolBatch is how many keys (both streams) a parallel engine
// translates before it runs them as one batch: eight of the emitter's
// 1024-reference batches, so the per-batch hand-off -- a job per
// worker, a barrier, often a parked worker to wake -- is paid once per
// eight.
const poolBatch = 8192

// Refs implements trace.BatchSink: the sweep's hot path. A plan that
// prices one stream gets only that stream's keys; instructions are
// counted whatever the plan.
func (e *sweepEngine) Refs(refs []trace.Ref) {
	n := len(e.ikeys)
	iOnly, dOnly := e.iOnly, e.dOnly
	for _, r := range refs {
		if r.Kind == trace.IFetch {
			if dOnly {
				e.instrs++
			} else {
				e.ikeys = append(e.ikeys, vm.CacheKey(r.Addr, r.ASID))
			}
		} else if !iOnly && vm.SegmentOf(r.Addr) != vm.Kseg1 { // uncached
			e.dkeys = append(e.dkeys, cheetah.PackRef(vm.CacheKey(r.Addr, r.ASID), r.Kind == trace.Store))
		}
	}
	e.instrs += uint64(len(e.ikeys) - n)
	if e.pool == nil || len(e.ikeys)+len(e.dkeys) >= poolBatch {
		e.runBatch()
	}
}

// runBatch runs the translated keys through every unit -- in place on
// a serial engine, else as one job on each of up to min(workers,
// units) workers -- and waits for them before the key slices are
// reused. A panic captured from a worker is re-raised here, on the
// submitting goroutine, where the per-workload recover turns it into
// that workload's error.
func (e *sweepEngine) runBatch() {
	if e.pool == nil {
		e.i.AccessKeys(e.ikeys)
		e.d.AccessPacked(e.dkeys)
	} else {
		jobs := min(len(e.pool.chans), len(e.units))
		e.next.Store(0)
		e.batch.Add(jobs)
		// The worker handed a job first starts claiming first; rotating
		// the first worker gives every worker that head start in turn.
		e.batches++
		for k := range jobs {
			e.pool.chans[(e.batches+k)%len(e.pool.chans)] <- e
		}
		e.batch.Wait()
	}
	e.ikeys, e.dkeys = e.ikeys[:0], e.dkeys[:0]
	if v := e.panicked; v != nil {
		e.panicked = nil
		panic(v)
	}
}

// flush runs the keys translated but not yet run: the end of the
// engine's stream.
func (e *sweepEngine) flush() {
	if len(e.ikeys)+len(e.dkeys) > 0 {
		e.runBatch()
	}
}

// Ref implements trace.Sink for producers that do not batch.
func (e *sweepEngine) Ref(r trace.Ref) {
	e.one[0] = r
	e.Refs(e.one[:])
}

// iMisses returns the I-stream miss count for one configuration.
func (e *sweepEngine) iMisses(c area.CacheConfig) uint64 {
	e.flush()
	return e.i.Misses(c)
}

// dReadMisses returns the D-stream read (load) miss count for one
// configuration under the write-through, no-write-allocate policy.
func (e *sweepEngine) dReadMisses(c area.CacheConfig) uint64 {
	e.flush()
	return e.d.ReadMisses(c)
}

// work is one worker's share of the current batch: it claims units
// until none is left, capturing a panic into the engine so runBatch
// can re-raise it on the submitting goroutine instead of crashing the
// process.
func (e *sweepEngine) work(lane *spans.Lane) {
	span := lane.Start("sweep.job")
	defer func() {
		if v := recover(); v != nil {
			e.panicMu.Lock()
			if e.panicked == nil {
				e.panicked = v
			}
			e.panicMu.Unlock()
		}
		span.End()
		e.batch.Done()
	}()
	for {
		n := e.next.Add(1) - 1
		if n >= int64(len(e.units)) {
			return
		}
		if u := e.units[n]; u.i != nil {
			u.i.AccessKeys(e.ikeys)
		} else {
			u.d.AccessPacked(e.dkeys)
		}
	}
}

// groupPool is a set of simulation workers, each owning one job
// channel. An engine submits every batch as one job to each of
// min(workers, units) workers, and the per-engine barrier means a unit
// never sees two batches out of order even when several engines share
// the pool. A channel holds a job from as many engines as the pool has
// workers -- the sweep never runs more engines than that at once -- so
// an engine does not wait on one busy worker to reach the others.
// Determinism is free: units touch disjoint simulator state, and each
// unit sees the full stream in order, whichever worker claims it for a
// batch.
type groupPool struct {
	chans  []chan *sweepEngine
	exited sync.WaitGroup
}

// newGroupPool starts `workers` simulation workers. A non-nil tracer
// gives each worker a lane named "<lanePrefix>.worker.<N>" recording
// one span per consumed job; a nil tracer records nothing.
func newGroupPool(workers int, tr *spans.Tracer, lanePrefix string) *groupPool {
	p := &groupPool{}
	for w := 0; w < workers; w++ {
		// Room for a job from each engine the sweep runs at once.
		ch := make(chan *sweepEngine, workers)
		p.chans = append(p.chans, ch)
		p.exited.Add(1)
		lane := tr.Lane(lanePrefix + ".worker." + strconv.Itoa(w))
		go p.worker(lane, ch)
	}
	return p
}

func (p *groupPool) worker(lane *spans.Lane, ch chan *sweepEngine) {
	defer p.exited.Done()
	for e := range ch {
		e.work(lane)
	}
}

// close shuts the workers down and waits for them to exit.
func (p *groupPool) close() {
	for _, ch := range p.chans {
		close(ch)
	}
	p.exited.Wait()
}
