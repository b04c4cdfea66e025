// Package tsdb is the durable half of the observability plane: an
// embedded, append-only, on-disk time-series store. Where internal/obs
// keeps a fixed-capacity in-memory window that dies with the process --
// the same flaw as the paper's Monster monitor, whose history vanished
// when the logic-analyzer probe disconnected -- this package persists
// every sampled metric series across runs, so `memalloc tsdb trend` can
// do longitudinal regression tracking over a fleet of runs instead of
// diffing two snapshots.
//
// Layout: one directory per run under the store root, one shard file
// per metric per resolution tier inside it, plus a MANIFEST.json
// identifying the run:
//
//	<root>/<runid>/MANIFEST.json
//	<root>/<runid>/<tier>/<metric>.<seq>.tsd
//
// Tiers are "raw" (every sample), "10s" and "1m" (rollups with
// min/max/sum/count per window, written as raw windows complete, so old
// data shrinks instead of disappearing).
//
// Shard files are a checksummed stream: a one-line header naming the
// format, then self-delimiting blocks, each carrying its own
// length and CRC32. A block is the atomic unit of appending -- a crash
// mid-write tears at most the final block of the active segment, and
// the checksum makes the torn tail detectable and discardable on open.
// Segments rotate at a size threshold: the active file is synced and
// closed, and a new numbered segment is created, so long runs never
// re-copy old data and a reader sees only whole, verified blocks.
//
// Inside a block, points are delta-encoded: timestamps as zig-zag
// varint deltas, values as varint-encoded XORs of consecutive float64
// bit patterns (the Gorilla/zenodb trick: successive samples of the
// same metric share exponent and mantissa prefixes, so the XOR is
// mostly zero bytes and the varint collapses it).
package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"strings"

	"onchip/internal/telemetry"
)

// FormatVersion is the shard-file format version, written in every
// segment header and checked on open. Version 2 added the metric class;
// version-1 shards are refused rather than classified by name.
const FormatVersion = 2

// segMagic opens every segment file: "OTSD <version> <tier> <kind>
// <class> <metric>\n" followed by blocks. Tier is the resolution name;
// kind is the metric type ("counter", "gauge", "histogram") so readers
// can pick a per-run scalar without consulting the registry; class is
// the telemetry.Class declared at registration, which trend gating
// reads; the metric name is authoritative (file names are a sanitized
// rendering of it) and runs to the end of the line.
const segMagic = "OTSD"

// Res is a resolution tier of the store.
type Res int

const (
	// Raw keeps every sample the obs sampler takes.
	Raw Res = iota
	// R10s rolls samples up into 10-second min/max/sum/count windows.
	R10s
	// R1m rolls samples up into 1-minute windows.
	R1m
)

// resWindowMs are the rollup window widths; Raw has no window.
var resWindowMs = [...]int64{0, 10_000, 60_000}

// String returns the tier's directory name.
func (r Res) String() string {
	switch r {
	case Raw:
		return "raw"
	case R10s:
		return "10s"
	case R1m:
		return "1m"
	}
	return fmt.Sprintf("res(%d)", int(r))
}

// WindowMs returns the rollup window in milliseconds (0 for Raw).
func (r Res) WindowMs() int64 { return resWindowMs[r] }

// Tiers lists every resolution, coarsest last.
var Tiers = []Res{Raw, R10s, R1m}

// ParseRes parses a tier name as used in URLs and the CLI.
func ParseRes(s string) (Res, error) {
	for _, r := range Tiers {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("tsdb: unknown resolution %q (want raw, 10s or 1m)", s)
}

// Point is one stored sample or rollup window. Raw points have Count 1
// and Min == Max == Sum == the sampled value; rollup points aggregate
// every raw sample whose timestamp fell in [UnixMs, UnixMs+window).
type Point struct {
	UnixMs int64   `json:"t"`
	Count  uint64  `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Sum    float64 `json:"sum"`
}

// Mean returns the window mean (the value itself for raw points).
func (p Point) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

// rawPoint makes the Point for a single sample.
func rawPoint(ms int64, v float64) Point {
	return Point{UnixMs: ms, Count: 1, Min: v, Max: v, Sum: v}
}

// segHeader is what a segment's header line records about its series.
type segHeader struct {
	res    Res
	kind   string
	class  telemetry.Class
	metric string
}

// String renders the one-line header opening a segment file.
func (h segHeader) String() string {
	return fmt.Sprintf("%s %d %s %s %s %s\n", segMagic, FormatVersion, h.res, h.kind, h.class, h.metric)
}

// errOldFormat marks a shard written before the current format: a
// reader must refuse it, not skip it as a partial file.
var errOldFormat = fmt.Errorf("tsdb: shard format predates version %d (metric classes); re-record the run", FormatVersion)

// parseSegmentHeader consumes the header line from data and returns it
// with the remaining bytes. Only the canonical rendering parses, so a
// parsed header re-renders to the same bytes.
func parseSegmentHeader(data []byte) (h segHeader, rest []byte, err error) {
	end := bytes.IndexByte(data, '\n')
	if end < 0 {
		return h, nil, fmt.Errorf("tsdb: not a shard file (no header line)")
	}
	f := strings.SplitN(string(data[:end]), " ", 6)
	if len(f) < 2 || f[0] != segMagic {
		return h, nil, fmt.Errorf("tsdb: not a shard file (bad header)")
	}
	if v, err := strconv.Atoi(f[1]); err == nil && v >= 1 && v < FormatVersion {
		return h, nil, errOldFormat
	}
	if f[1] != strconv.Itoa(FormatVersion) {
		return h, nil, fmt.Errorf("tsdb: unsupported shard format version %q (want %d)", f[1], FormatVersion)
	}
	if len(f) != 6 || f[3] == "" || f[5] == "" {
		return h, nil, fmt.Errorf("tsdb: not a shard file (bad header)")
	}
	h.kind, h.metric = f[3], f[5]
	if h.res, err = ParseRes(f[2]); err != nil {
		return h, nil, err
	}
	if h.class, err = telemetry.ParseClass(f[4]); err != nil {
		return h, nil, err
	}
	return h, data[end+1:], nil
}

// A block is length-prefixed and checksummed:
//
//	uvarint  payload length
//	uint32   CRC32 (IEEE) of the payload, little-endian
//	payload  delta-encoded points
//
// The payload starts with a uvarint point count, then per-point fields.
// Raw payloads carry (ts, value) streams; rollup payloads additionally
// carry count/min/max with Sum in the value stream's place... see
// appendBlock.

// appendBlock encodes pts as one block and appends it to dst. Raw
// blocks store only timestamp+value per point; rollup blocks store the
// full aggregate. Points must be in ascending UnixMs order.
func appendBlock(dst []byte, res Res, pts []Point) []byte {
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(pts)))
	prevTs := int64(0)
	prevBits := [3]uint64{} // value/min/max XOR chains
	for _, p := range pts {
		payload = binary.AppendVarint(payload, p.UnixMs-prevTs)
		prevTs = p.UnixMs
		payload = appendXorFloat(payload, &prevBits[0], p.Sum)
		if res != Raw {
			payload = binary.AppendUvarint(payload, p.Count)
			payload = appendXorFloat(payload, &prevBits[1], p.Min)
			payload = appendXorFloat(payload, &prevBits[2], p.Max)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// appendXorFloat varint-encodes v's bits XOR the previous value's bits
// and advances the chain.
func appendXorFloat(dst []byte, prev *uint64, v float64) []byte {
	bits := math.Float64bits(v)
	dst = binary.AppendUvarint(dst, bits^*prev)
	*prev = bits
	return dst
}

// decodeBlocks appends every point from the verified blocks in data to
// dst. A torn or corrupt tail -- short length prefix, truncated
// payload, or checksum mismatch -- ends the scan cleanly: the points
// decoded so far are returned with truncated=true, never an error,
// because a crash mid-append legitimately leaves one (the issue the
// per-block CRC exists to contain). A decode error *inside* a verified
// payload, by contrast, means real corruption and is reported.
func decodeBlocks(dst []Point, res Res, data []byte) (pts []Point, truncated bool, err error) {
	for len(data) > 0 {
		plen, n := binary.Uvarint(data)
		if n <= 0 || plen > uint64(len(data)) || uint64(len(data)-n) < plen+4 {
			return dst, true, nil
		}
		data = data[n:]
		sum := binary.LittleEndian.Uint32(data)
		payload := data[4 : 4+plen]
		data = data[4+plen:]
		if crc32.ChecksumIEEE(payload) != sum {
			return dst, true, nil
		}
		if dst, err = decodePayload(dst, res, payload); err != nil {
			return dst, false, err
		}
	}
	return dst, false, nil
}

// decodePayload decodes one verified block payload.
func decodePayload(dst []Point, res Res, payload []byte) ([]Point, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("tsdb: bad block payload (point count)")
	}
	payload = payload[n:]
	prevTs := int64(0)
	prevBits := [3]uint64{}
	readVar := func() (int64, bool) {
		v, n := binary.Varint(payload)
		if n <= 0 {
			return 0, false
		}
		payload = payload[n:]
		return v, true
	}
	readUvar := func() (uint64, bool) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, false
		}
		payload = payload[n:]
		return v, true
	}
	readFloat := func(chain *uint64) (float64, bool) {
		x, ok := readUvar()
		if !ok {
			return 0, false
		}
		*chain ^= x
		return math.Float64frombits(*chain), true
	}
	for i := uint64(0); i < count; i++ {
		var p Point
		dt, ok := readVar()
		if !ok {
			return dst, fmt.Errorf("tsdb: bad block payload (timestamp)")
		}
		prevTs += dt
		p.UnixMs = prevTs
		if p.Sum, ok = readFloat(&prevBits[0]); !ok {
			return dst, fmt.Errorf("tsdb: bad block payload (value)")
		}
		if res == Raw {
			p.Count, p.Min, p.Max = 1, p.Sum, p.Sum
		} else {
			if p.Count, ok = readUvar(); !ok {
				return dst, fmt.Errorf("tsdb: bad block payload (count)")
			}
			if p.Min, ok = readFloat(&prevBits[1]); !ok {
				return dst, fmt.Errorf("tsdb: bad block payload (min)")
			}
			if p.Max, ok = readFloat(&prevBits[2]); !ok {
				return dst, fmt.Errorf("tsdb: bad block payload (max)")
			}
		}
		dst = append(dst, p)
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("tsdb: bad block payload (%d trailing bytes)", len(payload))
	}
	return dst, nil
}
