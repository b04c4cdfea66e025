package tracecache

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"onchip/internal/telemetry"
	"onchip/internal/trace"
)

// Key identifies one cached reference stream. Every field participates
// in the content address, so any change to the generating model
// produces a different filename and the stale entry is simply never
// found.
type Key struct {
	// Workload and OS name the generator configuration for the header
	// line; Seed and Refs pin the stream.
	Workload string
	OS       string
	Seed     uint64
	Refs     int
	// Model is a full fingerprint of the generating parameters beyond
	// the seed (e.g. fmt.Sprintf("%+v", spec) for a workload spec):
	// tuning a mix re-keys the entry even at an unchanged seed.
	Model string
}

// hash is the content address: FNV-64a over the format version and
// every key field, NUL-separated (the same idiom as the advisor's
// request signature, experiments.AdviseRequest.Signature).
func (k Key) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "octc/%d\x00%s\x00%s\x00%d\x00%d\x00%s",
		FormatVersion, k.Workload, k.OS, k.Seed, k.Refs, k.Model)
	return h.Sum64()
}

// Cache is a directory of compressed trace entries. The zero value is
// unusable; Open creates the directory. All counters are nil until
// Describe attaches a registry (the nil instruments are no-ops).
type Cache struct {
	dir string

	hits    *telemetry.Counter
	misses  *telemetry.Counter
	corrupt *telemetry.Counter
	bytes   *telemetry.Counter

	// logw receives one operator line per corrupt-entry event and
	// eviction, naming the content address it hit.
	logw io.Writer
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Describe registers the cache's telemetry counters. They are
// telemetry.Arrangement metrics: a warm run hits where a cold one
// missed, with identical results, so no determinism gate compares
// them.
func (c *Cache) Describe(registry *telemetry.Registry) {
	reg := registry.In(telemetry.Arrangement)
	c.hits = reg.Counter("tracecache.hit", "trace cache lookups served from disk")
	c.misses = reg.Counter("tracecache.miss", "trace cache lookups that fell back to generation")
	c.corrupt = reg.Counter("tracecache.corrupt", "trace cache entries rejected as corrupt")
	c.bytes = reg.Counter("tracecache.bytes", "compressed bytes committed to the trace cache")
}

// SetLogWriter directs one operator-facing log line per corrupt-entry
// event (naming the content address, so disk-level errors can be
// correlated) to w. Nil disables logging, the default.
func (c *Cache) SetLogWriter(w io.Writer) { c.logw = w }

// noteCorrupt records one corrupt-entry event against addr: the
// counter and the operator log line.
func (c *Cache) noteCorrupt(addr string, err error) {
	c.corrupt.Inc()
	if c.logw != nil {
		fmt.Fprintf(c.logw, "tracecache: corrupt entry %s: %v\n", addr, err)
	}
}

// Evict removes k's entry from the cache, logging the content address
// so operators can correlate evictions with disk issues. The fallback
// path calls it after a corrupt replay: regeneration will re-record
// the entry, and in the meantime no other run trips over the bad
// bytes. Missing entries are a no-op.
func (c *Cache) Evict(k Key) {
	addr := fmt.Sprintf("%016x", k.hash())
	if err := os.Remove(c.path(k)); err != nil {
		if !os.IsNotExist(err) && c.logw != nil {
			fmt.Fprintf(c.logw, "tracecache: evicting %s: %v\n", addr, err)
		}
		return
	}
	if c.logw != nil {
		fmt.Fprintf(c.logw, "tracecache: evicted corrupt entry %s (workload %s, %s, seed=%d, refs=%d)\n",
			addr, k.Workload, k.OS, k.Seed, k.Refs)
	}
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, fmt.Sprintf("%016x.octc", k.hash()))
}

// header returns the entry's one-line header. Only the version and
// hash gate reads; the rest makes entries greppable on disk.
func (c *Cache) header(k Key) string {
	return fmt.Sprintf("OCTC %d %016x %s %s seed=%d refs=%d\n",
		FormatVersion, k.hash(), k.Workload, k.OS, k.Seed, k.Refs)
}

// OpenEntry looks k up, returning nil on a miss. A present-but-corrupt
// header counts as corrupt and reads as a miss; corruption past the
// header surfaces later as ErrCorrupt from ReplaySegment.
func (c *Cache) OpenEntry(k Key) *Entry {
	f, err := os.Open(c.path(k))
	if err != nil {
		c.misses.Inc()
		return nil
	}
	addr := fmt.Sprintf("%016x", k.hash())
	br := bufio.NewReaderSize(f, 1<<16)
	line, err := br.ReadString('\n')
	if err != nil || line != c.header(k) {
		f.Close()
		c.noteCorrupt(addr, corruptf("bad entry header"))
		c.misses.Inc()
		return nil
	}
	c.hits.Inc()
	return &Entry{c: c, f: f, br: br, addr: addr}
}

// Entry replays one cached stream, segment by segment, in the exact
// order it was recorded.
type Entry struct {
	c    *Cache
	f    *os.File
	br   *bufio.Reader
	addr string // content address, for corrupt-event reporting

	buf       []trace.Ref
	delivered uint64
	segments  uint64
	done      bool
}

// Close releases the entry's file.
func (e *Entry) Close() error { return e.f.Close() }

// Reject records the entry as corrupt for a reason the caller found in
// its content -- a stream that decodes cleanly but does not have the
// shape the caller recorded -- and returns that reason as an error
// matching ErrCorrupt. It counts and logs the event as the decoder's
// own failures do.
func (e *Entry) Reject(reason string) error {
	err := corruptf("%s", reason)
	e.c.noteCorrupt(e.addr, err)
	return err
}

// ReplaySegment streams the next recorded segment into sink in batched
// stream order, returning the number of references delivered and
// whether the entry is exhausted (the final segment verifies the
// entry's total reference and segment counts). Any decode failure
// returns an error matching ErrCorrupt; the sink may then have seen a
// partial stream, so the caller must discard dependent state and
// regenerate.
func (e *Entry) ReplaySegment(ctx context.Context, sink trace.Sink) (uint64, bool, error) {
	if e.done {
		return 0, true, corruptf("replay past end of entry")
	}
	batched := trace.Batched(sink)
	var n uint64
	for {
		if err := ctx.Err(); err != nil {
			return n, false, err
		}
		payload, err := e.readBlock()
		if err != nil {
			e.c.noteCorrupt(e.addr, err)
			return n, false, err
		}
		refs, ctl, err := decodePayload(payload, e.buf[:0])
		if err != nil {
			e.c.noteCorrupt(e.addr, err)
			return n, false, err
		}
		e.buf = refs // keep the grown buffer for the next block
		if ctl == nil {
			n += uint64(len(refs))
			e.delivered += uint64(len(refs))
			batched.Refs(refs)
			continue
		}
		e.segments++
		if ctl.mark == markSegment {
			return n, false, nil
		}
		e.done = true
		if ctl.total != e.delivered || ctl.segments != e.segments {
			err := corruptf("entry totals %d refs/%d segments, recorded %d/%d",
				e.delivered, e.segments, ctl.total, ctl.segments)
			e.c.noteCorrupt(e.addr, err)
			return n, true, err
		}
		return n, true, nil
	}
}

// readBlock reads one length-prefixed, CRC-checked block payload.
func (e *Entry) readBlock() ([]byte, error) {
	size, err := binary.ReadUvarint(e.br)
	if err != nil {
		return nil, corruptf("block length: %v", err)
	}
	if size == 0 || size > maxBlockBytes {
		return nil, corruptf("implausible block size %d", size)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(e.br, crcBuf[:]); err != nil {
		return nil, corruptf("block checksum truncated")
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(e.br, payload); err != nil {
		return nil, corruptf("block payload truncated")
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, corruptf("block checksum mismatch")
	}
	return payload, nil
}

// Block sizing: flush a block every blockRefs records. maxBlockBytes
// bounds a decoder's allocation for any claimed length (a record is at
// most 7 encoded bytes).
const (
	blockRefs     = 1 << 16
	maxBlockBytes = 8 * blockRefs
)

// Writer records a stream into the cache. It implements trace.Sink and
// trace.BatchSink, so it drops into a trace.Tee next to the simulators
// consuming the live generation. Nothing is visible under the content
// address until Commit's atomic rename; a writer abandoned without
// Commit leaves no entry.
type Writer struct {
	c   *Cache
	key Key

	f       *os.File
	bw      *bufio.Writer
	codec   refCodec
	payload []byte
	pending int // records in payload
	frame   []byte

	total    uint64
	segments uint64
	err      error
}

// NewWriter opens a recording for k, writing to a temporary sibling
// file until Commit.
func (c *Cache) NewWriter(k Key) (*Writer, error) {
	f, err := os.CreateTemp(c.dir, ".octc-*")
	if err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	w := &Writer{c: c, key: k, f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	if _, err := w.bw.WriteString(c.header(k)); err != nil {
		w.Abort()
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	return w, nil
}

// Ref implements trace.Sink.
func (w *Writer) Ref(r trace.Ref) {
	if w.pending == 0 {
		w.codec = refCodec{}
		w.payload = w.payload[:0]
	}
	w.payload = w.codec.appendRef(w.payload, r)
	w.pending++
	w.total++
	if w.pending >= blockRefs {
		w.flushBlock()
	}
}

// Refs implements trace.BatchSink.
func (w *Writer) Refs(refs []trace.Ref) {
	for _, r := range refs {
		w.Ref(r)
	}
}

// flushBlock frames and writes the pending payload.
func (w *Writer) flushBlock() {
	if w.pending == 0 {
		return
	}
	w.frame = binary.AppendUvarint(w.frame[:0], uint64(w.pending))
	w.frame = append(w.frame, w.payload...)
	w.writeFramed(w.frame)
	w.pending = 0
	w.payload = w.payload[:0]
}

// writeFramed writes one length-prefixed, CRC-protected block.
func (w *Writer) writeFramed(payload []byte) {
	if w.err != nil {
		return
	}
	var head [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(head[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(head[n:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(head[:n+4]); err == nil {
		_, w.err = w.bw.Write(payload)
	} else {
		w.err = err
	}
}

// EndSegment marks a replay pause point (the sweep's warm-up/measure
// boundary): ReplaySegment returns once per recorded segment.
func (w *Writer) EndSegment() {
	w.flushBlock()
	var ctl [2]byte
	ctl[0] = 0 // record count
	ctl[1] = markSegment
	w.writeFramed(ctl[:])
	w.segments++
}

// Commit seals the final segment with the entry's totals and atomically
// renames the recording into its content address. The writer is spent
// afterwards.
func (w *Writer) Commit() error {
	w.flushBlock()
	ctl := []byte{0, markEnd}
	ctl = binary.AppendUvarint(ctl, w.total)
	ctl = binary.AppendUvarint(ctl, w.segments+1)
	w.writeFramed(ctl)
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.err == nil {
		w.err = w.f.Sync()
	}
	name := w.f.Name()
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		os.Remove(name)
		return fmt.Errorf("tracecache: record %s: %w", w.key.Workload, w.err)
	}
	if fi, err := os.Stat(name); err == nil {
		w.c.bytes.Add(uint64(fi.Size()))
	}
	if err := os.Rename(name, w.c.path(w.key)); err != nil {
		os.Remove(name)
		return fmt.Errorf("tracecache: %w", err)
	}
	w.err = fmt.Errorf("tracecache: writer already committed")
	return nil
}

// Abort discards the recording, leaving no entry. Safe after Commit
// (it is then a no-op on the already-renamed file).
func (w *Writer) Abort() {
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
}
