package experiments

import (
	"strconv"
	"sync"

	"onchip/internal/area"
	"onchip/internal/cheetah"
	"onchip/internal/spans"
	"onchip/internal/trace"
	"onchip/internal/vm"
)

// sweepEngine is the fused fast path of the model-building sweep: one
// pass over a workload's reference stream prices the whole Table 5
// cache design space for both streams at once. Per batch it translates
// the references exactly once -- instruction fetches into I-stream
// cache keys, cached loads and stores into packed D-stream keys -- and
// feeds the shared key slices to the single-pass stack simulators
// (cheetah.Sweep for the I-stream, cheetah.DataSweep for the
// write-policy-aware D-stream). Compared with the original three-pass
// sweep this removes two of the three generation passes, the
// per-reference interface dispatch, and the per-configuration direct
// D-cache simulation, while producing bit-identical miss counts.
//
// In parallel mode the schedulable units are the I-stream's fused
// per-line-size cheetah.LineSweeps and the D-stream's (set count, line
// size) simulator groups: 6 + 48 per workload under Table 5, 6 + 36
// under Table 7's 2-way limit. Units are statically round-robined
// across the pool's workers; every unit observes the full stream in
// order, so results stay byte-identical to the serial path.
type sweepEngine struct {
	i      *cheetah.Sweep
	d      *cheetah.DataSweep
	instrs uint64

	ikeys []uint64
	dkeys []uint64
	one   [1]trace.Ref

	// pool, when non-nil, is the worker pool the engine's units run on.
	// The model-building sweep runs one pool for all workloads so cores
	// freed by finished workloads flow to the stragglers; the pool's
	// creator closes it.
	pool *groupPool
	// perWorker[w] is the fixed set of units worker w simulates for
	// every batch; static assignment keeps worker lanes deterministic.
	perWorker [][]groupUnit

	batch    sync.WaitGroup // per-batch barrier
	panicMu  sync.Mutex
	panicked any // first captured worker panic, re-raised after the barrier
}

// groupUnit is one schedulable piece of the engine: one I-stream
// LineSweep or one D-stream simulator group (exactly one field is
// non-nil).
type groupUnit struct {
	i *cheetah.LineSweep
	d *cheetah.AllAssocData
}

// newSweepEngine builds the fused engine over the configurations. A nil
// pool gives the serial engine.
func newSweepEngine(configs []area.CacheConfig, maxAssoc int, pool *groupPool) *sweepEngine {
	e := &sweepEngine{
		i: cheetah.NewSweep(configs, maxAssoc),
		d: cheetah.NewDataSweep(configs),
	}
	if pool == nil {
		return e
	}
	var units []groupUnit
	for _, l := range e.i.Lines() {
		units = append(units, groupUnit{i: l})
	}
	for _, g := range e.d.Groups() {
		units = append(units, groupUnit{d: g})
	}
	e.pool = pool
	e.perWorker = make([][]groupUnit, pool.workers())
	for idx, u := range units {
		w := idx % len(e.perWorker)
		e.perWorker[w] = append(e.perWorker[w], u)
	}
	return e
}

// Refs implements trace.BatchSink: the sweep's hot path.
func (e *sweepEngine) Refs(refs []trace.Ref) {
	e.ikeys = e.ikeys[:0]
	e.dkeys = e.dkeys[:0]
	for _, r := range refs {
		if r.Kind == trace.IFetch {
			e.ikeys = append(e.ikeys, vm.CacheKey(r.Addr, r.ASID))
		} else if vm.SegmentOf(r.Addr) != vm.Kseg1 { // uncached
			e.dkeys = append(e.dkeys, cheetah.PackRef(vm.CacheKey(r.Addr, r.ASID), r.Kind == trace.Store))
		}
	}
	e.instrs += uint64(len(e.ikeys))
	if e.pool != nil {
		e.runBatch()
		return
	}
	e.i.AccessKeys(e.ikeys)
	e.d.AccessPacked(e.dkeys)
}

// runBatch fans the translated batch out to the pool and waits for
// every unit to consume it before the shared key slices are reused.
func (e *sweepEngine) runBatch() {
	n := 0
	for _, units := range e.perWorker {
		if len(units) > 0 {
			n++
		}
	}
	e.batch.Add(n)
	for w, units := range e.perWorker {
		if len(units) == 0 {
			continue
		}
		e.pool.chans[w] <- groupJob{units: units, ikeys: e.ikeys, dkeys: e.dkeys, e: e}
	}
	e.batch.Wait()
	if v := e.panicked; v != nil {
		e.panicked = nil
		panic(v)
	}
}

// Ref implements trace.Sink for producers that do not batch.
func (e *sweepEngine) Ref(r trace.Ref) {
	e.one[0] = r
	e.Refs(e.one[:])
}

// iMisses returns the I-stream miss count for one configuration.
func (e *sweepEngine) iMisses(c area.CacheConfig) uint64 { return e.i.Misses(c) }

// dReadMisses returns the D-stream read (load) miss count for one
// configuration under the write-through, no-write-allocate policy.
func (e *sweepEngine) dReadMisses(c area.CacheConfig) uint64 { return e.d.ReadMisses(c) }

// groupPool is a set of simulation workers, each owning one job
// channel. Engines assign their simulator units statically across
// the workers and submit every batch as one job per worker; the
// per-engine barrier means a unit never sees two batches out of order
// even when several engines share the pool. Determinism is free: units
// touch disjoint simulator state, and each unit sees the full stream
// in order on a single worker.
type groupPool struct {
	chans  []chan groupJob
	exited sync.WaitGroup
}

// groupJob is one engine's batch for one worker's units.
type groupJob struct {
	units        []groupUnit
	ikeys, dkeys []uint64
	e            *sweepEngine
}

// newGroupPool starts `workers` simulation workers. A non-nil tracer
// gives each worker a lane named "<lanePrefix>.worker.<N>" recording
// one span per consumed job, which feeds the /spans per-worker
// utilization and worker-imbalance summary; a nil tracer records
// nothing.
func newGroupPool(workers int, tr *spans.Tracer, lanePrefix string) *groupPool {
	p := &groupPool{}
	for w := 0; w < workers; w++ {
		ch := make(chan groupJob, 1)
		p.chans = append(p.chans, ch)
		p.exited.Add(1)
		lane := tr.WorkerLane(lanePrefix + ".worker." + strconv.Itoa(w))
		go p.worker(lane, ch)
	}
	return p
}

// workers returns the pool width.
func (p *groupPool) workers() int { return len(p.chans) }

func (p *groupPool) worker(lane *spans.Lane, ch chan groupJob) {
	defer p.exited.Done()
	for job := range ch {
		job.run(lane)
	}
}

// run consumes one job, capturing a panic into the owning engine so
// runBatch can re-raise it on the submitting goroutine (where the
// per-workload recover turns it into that workload's error) instead of
// crashing the process.
func (j groupJob) run(lane *spans.Lane) {
	span := lane.Start("sweep.job")
	defer func() {
		if v := recover(); v != nil {
			j.e.panicMu.Lock()
			if j.e.panicked == nil {
				j.e.panicked = v
			}
			j.e.panicMu.Unlock()
		}
		span.End()
		j.e.batch.Done()
	}()
	for _, u := range j.units {
		if u.i != nil {
			u.i.AccessKeys(j.ikeys)
		} else {
			u.d.AccessPacked(j.dkeys)
		}
	}
}

// close shuts the workers down and waits for them to exit.
func (p *groupPool) close() {
	for _, ch := range p.chans {
		close(ch)
	}
	p.exited.Wait()
}
