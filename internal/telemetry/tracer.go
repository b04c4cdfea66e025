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
// Safe for one recorder plus any number of concurrent readers (the live
// observability server tails the ring while the machine fills it).
type Tracer struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // events ever recorded
}

// DefaultTracerDepth matches Monster's 128K-entry logic-analyzer buffer.
const DefaultTracerDepth = 128 << 10

// NewTracer returns a ring holding the last depth events; depth <= 0
// selects DefaultTracerDepth.
func NewTracer(depth int) *Tracer {
	if depth <= 0 {
		depth = DefaultTracerDepth
	}
	return &Tracer{buf: make([]Event, 0, depth)}
}

// Record appends an event, evicting the oldest once the ring is full.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = t.n
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.n%uint64(cap(t.buf))] = ev
	}
	t.n++
	t.mu.Unlock()
}

// Event implements Probe.
func (t *Tracer) Event(ev Event) { t.Record(ev) }

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
	return len(t.buf)
}

// Events returns the captured window, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

func (t *Tracer) eventsLocked() []Event {
	if len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	head := int(t.n % uint64(cap(t.buf))) // oldest entry
	out = append(out, t.buf[head:]...)
	return append(out, t.buf[:head]...)
}

// EventsSince returns the events with Seq >= since that are still in
// the window, oldest first, plus the sequence number to pass on the
// next call. Events that were evicted before the call are silently
// skipped (the tail resumes at the oldest survivor), so a slow reader
// loses data but never stalls the recorder.
func (t *Tracer) EventsSince(since uint64) ([]Event, uint64) {
	if t == nil {
		return nil, since
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= since {
		return nil, t.n
	}
	evs := t.eventsLocked()
	// evs is sorted by Seq; skip the prefix below since.
	lo := 0
	for lo < len(evs) && evs[lo].Seq < since {
		lo++
	}
	return evs[lo:], t.n
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
