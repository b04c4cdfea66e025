package tsdb

import (
	"math/rand"
	"testing"

	"onchip/internal/telemetry"
)

// FuzzSegment feeds arbitrary bytes to the shard-file reader as a whole
// segment. The header parser and the block decoder must never panic,
// and a header that parses must re-render to exactly the bytes it was
// parsed from -- so the class and version a reader acts on are the
// ones the writer put there, with no second spelling of either.
func FuzzSegment(f *testing.F) {
	pts := randomPoints(rand.New(rand.NewSource(4)), 5, R10s)
	valid := append([]byte(segHeader{R10s, "histogram", telemetry.WallClock, "span.sweep.model_us"}.String()),
		appendBlock(nil, R10s, pts)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(segHeader{Raw, "counter", telemetry.Result, "machine.cycles"}.String()))
	f.Add([]byte("OTSD 1 raw counter machine.cycles\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, res := range Tiers {
			decodeBlocks(nil, res, data)
		}
		h, rest, err := parseSegmentHeader(data)
		if err != nil {
			return
		}
		if got := h.String() + string(rest); got != string(data) {
			t.Fatalf("header %+v re-renders as %q; parsed from %q", h, h.String(), data[:len(data)-len(rest)])
		}
		decodeBlocks(nil, h.res, rest)
	})
}
