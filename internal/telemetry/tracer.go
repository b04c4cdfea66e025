package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Event is one machine-level occurrence: a reference that was charged
// stall cycles to a component. The numeric Kind and Comp codes belong to
// the producer (package machine); the producer supplies name functions
// when dumping.
type Event struct {
	Seq    uint64 // position in the whole run, 0-based
	Kind   uint8  // reference kind (trace.Kind)
	Addr   uint32 // virtual address of the reference
	ASID   uint8  // address space
	Comp   uint8  // component charged
	Cycles uint32 // stall cycles charged
}

// AppendJSON appends the event as a single JSON object (no trailing
// newline) to dst and returns the extended slice. kindName and compName
// translate the producer's numeric codes; nil funcs emit the raw
// numbers. Hand-rolled for speed and stable field order; values are
// numbers and name-function strings (no escaping needed for the
// producers in this repo).
func (ev Event) AppendJSON(dst []byte, kindName, compName func(uint8) string) []byte {
	kind, comp := strconv.Itoa(int(ev.Kind)), strconv.Itoa(int(ev.Comp))
	if kindName != nil {
		kind = kindName(ev.Kind)
	}
	if compName != nil {
		comp = compName(ev.Comp)
	}
	return fmt.Appendf(dst, `{"type":"event","seq":%d,"kind":%q,"addr":"0x%08x","asid":%d,"comp":%q,"cycles":%d}`,
		ev.Seq, kind, ev.Addr, ev.ASID, comp, ev.Cycles)
}

// Probe receives fine-grained events from instrumented code. *Tracer
// implements it.
type Probe interface {
	Event(Event)
}

// Tracer is a bounded event ring: it keeps the most recent events,
// mirroring the paper's Monster setup, whose logic analyzer captured a
// 128K-entry window of machine transactions at the CPU pins for
// post-mortem inspection. The nil *Tracer is a valid no-op instrument.
// Safe for one recorder plus any number of concurrent readers.
type Tracer struct {
	mu   sync.Mutex
	ring []Event // the event with Seq s lives at ring[s%len(ring)]
	n    uint64  // events ever recorded
}

// DefaultTracerDepth matches Monster's 128K-entry logic-analyzer buffer.
const DefaultTracerDepth = 128 << 10

// NewTracer returns a ring holding the last depth events; depth <= 0
// selects DefaultTracerDepth.
func NewTracer(depth int) *Tracer {
	if depth <= 0 {
		depth = DefaultTracerDepth
	}
	return &Tracer{ring: make([]Event, depth)}
}

// Record appends an event, evicting the oldest once the ring is full.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = t.n
	t.ring[t.n%uint64(len(t.ring))] = ev
	t.n++
	t.mu.Unlock()
}

// Event implements Probe.
func (t *Tracer) Event(ev Event) { t.Record(ev) }

// Depth returns how many events the ring holds at most (zero for the
// nil instrument).
func (t *Tracer) Depth() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Total returns the number of events ever recorded (including evicted
// ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Len returns the number of events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.n - t.oldest())
}

// Events returns the captured window, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	older, newer := t.window()
	if len(older) == 0 {
		return nil
	}
	out := make([]Event, 0, len(older)+len(newer))
	return append(append(out, older...), newer...)
}

// Reset empties the ring and restarts Seq at zero, keeping the storage.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.n = 0
	t.mu.Unlock()
}

// Absorb appends src's events to t as if they had been recorded into t
// after t's own: each keeps its place, with Seq offset by t's total,
// and t's total advances by src's, evicted events included. Since src
// is at least as deep as t (a shallower src panics), every event src
// evicted is too old for t's window as well, so t ends exactly as if it
// had recorded src's events itself. src must no longer be recording
// and must not be t. Safe to call with either tracer nil.
func (t *Tracer) Absorb(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	if len(src.ring) < len(t.ring) {
		panic(fmt.Sprintf("telemetry: absorbing a %d-event ring into a deeper %d-event one", len(src.ring), len(t.ring)))
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	base, d := t.n, uint64(len(t.ring))
	i := (base + src.oldest()) % d
	older, newer := src.window()
	for _, seg := range [2][]Event{older, newer} {
		for _, ev := range seg {
			ev.Seq += base
			t.ring[i] = ev
			if i++; i == d {
				i = 0
			}
		}
	}
	t.n = base + src.n
}

// oldest returns the Seq of the oldest event held. Callers hold t.mu.
func (t *Tracer) oldest() uint64 { return t.n - min(t.n, uint64(len(t.ring))) }

// window returns the events held, oldest first, as two runs of the
// ring. Callers hold t.mu.
func (t *Tracer) window() (older, newer []Event) {
	d := uint64(len(t.ring))
	start := t.oldest() % d
	end := start + t.n - t.oldest()
	if end <= d {
		return t.ring[start:end], nil
	}
	return t.ring[start:], t.ring[:end-d]
}

// WriteJSONL dumps the captured window as JSONL, one event per line,
// oldest first. kindName and compName translate the producer's numeric
// codes; nil funcs emit the raw numbers. Safe to call while a recorder
// is still appending: the dump is of a consistent point-in-time copy of
// the window.
func (t *Tracer) WriteJSONL(w io.Writer, kindName, compName func(uint8) string) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, ev := range t.Events() {
		line = append(ev.AppendJSON(line[:0], kindName, compName), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
