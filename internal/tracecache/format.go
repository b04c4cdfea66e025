// Package tracecache caches generated reference streams on disk so a
// repeat sweep never pays for generation twice. Entries are
// content-addressed -- the filename is an FNV-64a hash over the
// workload, OS model, seed, reference count, and format version, in
// the style of internal/sig's content signatures -- so a stale entry
// is simply never looked up, and a changed model re-keys rather than
// corrupts.
//
// The on-disk format ("OCTC") compresses aggressively because traces
// are overwhelmingly sequential: records carry zig-zag varint address
// deltas against two per-block chains (one for instruction fetches,
// one for data accesses), a packed kind/mode flag byte, and an ASID
// byte only when the address space changes. Payloads are framed in
// length-prefixed CRC32 blocks, so truncation and bit rot are detected
// per block; a corrupt entry is reported as ErrCorrupt and the caller
// falls back to live generation.
package tracecache

import (
	"encoding/binary"
	"errors"
	"fmt"

	"onchip/internal/trace"
)

// FormatVersion is baked into both the content-address hash and the
// entry header: bumping it orphans (never misreads) old entries.
const FormatVersion = 1

// ErrCorrupt wraps every decode failure: CRC mismatch, truncated
// block, invalid record, or count mismatch. Callers match it with
// errors.Is and regenerate.
var ErrCorrupt = errors.New("tracecache: corrupt entry")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Record flag byte: bits 0-1 kind, bit 2 mode, bit 3 "ASID byte
// follows"; higher bits must be zero.
const (
	flagKindMask = 0x03
	flagKernel   = 0x04
	flagASID     = 0x08
	flagValid    = 0x0f
)

// refCodec holds the per-block delta state. Chains reset at every
// block boundary so blocks decode independently and a corrupt block
// cannot silently skew its successors' addresses.
type refCodec struct {
	// prev[0] chains instruction-fetch addresses (the PC walks
	// sequentially); prev[1] chains data addresses.
	prev     [2]uint32
	prevASID uint8
}

// appendRef encodes r onto buf.
func (c *refCodec) appendRef(buf []byte, r trace.Ref) []byte {
	cls := 0
	if r.Kind != trace.IFetch {
		cls = 1
	}
	flag := byte(r.Kind) & flagKindMask
	if r.Mode == trace.Kernel {
		flag |= flagKernel
	}
	if r.ASID != c.prevASID {
		flag |= flagASID
	}
	buf = append(buf, flag)
	if r.ASID != c.prevASID {
		buf = append(buf, r.ASID)
		c.prevASID = r.ASID
	}
	buf = binary.AppendVarint(buf, int64(int32(r.Addr-c.prev[cls])))
	c.prev[cls] = r.Addr
	return buf
}

// decodeRef decodes one record, returning the remaining payload.
func (c *refCodec) decodeRef(payload []byte) (trace.Ref, []byte, error) {
	if len(payload) == 0 {
		return trace.Ref{}, nil, corruptf("record truncated")
	}
	flag := payload[0]
	payload = payload[1:]
	if flag&^byte(flagValid) != 0 || flag&flagKindMask > byte(trace.Store) {
		return trace.Ref{}, nil, corruptf("invalid record flag %#02x", flag)
	}
	r := trace.Ref{Kind: trace.Kind(flag & flagKindMask), ASID: c.prevASID}
	if flag&flagKernel != 0 {
		r.Mode = trace.Kernel
	}
	if flag&flagASID != 0 {
		if len(payload) == 0 {
			return trace.Ref{}, nil, corruptf("record truncated in ASID")
		}
		r.ASID = payload[0]
		c.prevASID = payload[0]
		payload = payload[1:]
	}
	delta, n := binary.Varint(payload)
	if n <= 0 {
		return trace.Ref{}, nil, corruptf("record truncated in address delta")
	}
	payload = payload[n:]
	cls := 0
	if r.Kind != trace.IFetch {
		cls = 1
	}
	r.Addr = c.prev[cls] + uint32(delta)
	c.prev[cls] = r.Addr
	return r, payload, nil
}

// Control payloads (record count zero) separate and terminate the
// record stream.
const (
	markSegment = 0 // segment boundary: replay pauses here
	markEnd     = 1 // end of entry, followed by total refs and segment count
)

// encodeRecords compresses refs into one block payload: a uvarint
// record count followed by the records, delta chains starting fresh.
func encodeRecords(dst []byte, refs []trace.Ref) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(refs)))
	var c refCodec
	for _, r := range refs {
		dst = c.appendRef(dst, r)
	}
	return dst
}

// control describes a decoded control payload.
type control struct {
	mark     uint64
	total    uint64 // markEnd: refs across all segments
	segments uint64 // markEnd: segment count
}

// decodePayload decodes one block payload into out (appending), or
// returns the control marker for a zero-count payload.
func decodePayload(payload []byte, out []trace.Ref) ([]trace.Ref, *control, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return out, nil, corruptf("payload truncated in record count")
	}
	payload = payload[sz:]
	if n == 0 {
		ctl := &control{}
		ctl.mark, sz = binary.Uvarint(payload)
		if sz <= 0 {
			return out, nil, corruptf("control payload truncated")
		}
		payload = payload[sz:]
		switch ctl.mark {
		case markSegment:
		case markEnd:
			ctl.total, sz = binary.Uvarint(payload)
			if sz <= 0 {
				return out, nil, corruptf("end marker truncated in total")
			}
			payload = payload[sz:]
			ctl.segments, sz = binary.Uvarint(payload)
			if sz <= 0 {
				return out, nil, corruptf("end marker truncated in segments")
			}
			payload = payload[sz:]
		default:
			return out, nil, corruptf("unknown control marker %d", ctl.mark)
		}
		if len(payload) != 0 {
			return out, nil, corruptf("%d trailing bytes after control", len(payload))
		}
		return out, ctl, nil
	}
	var c refCodec
	for i := uint64(0); i < n; i++ {
		r, rest, err := c.decodeRef(payload)
		if err != nil {
			return out, nil, err
		}
		payload = rest
		out = append(out, r)
	}
	if len(payload) != 0 {
		return out, nil, corruptf("%d trailing bytes after records", len(payload))
	}
	return out, nil, nil
}
