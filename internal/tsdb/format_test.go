package tsdb

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"onchip/internal/telemetry"
)

func TestResRoundTrip(t *testing.T) {
	for _, res := range Tiers {
		got, err := ParseRes(res.String())
		if err != nil || got != res {
			t.Errorf("ParseRes(%q) = %v, %v", res.String(), got, err)
		}
	}
	if _, err := ParseRes("5s"); err == nil {
		t.Error("unknown resolution must error")
	}
	if Raw.WindowMs() != 0 || R10s.WindowMs() != 10_000 || R1m.WindowMs() != 60_000 {
		t.Error("window widths changed")
	}
}

func randomPoints(rng *rand.Rand, n int, res Res) []Point {
	pts := make([]Point, n)
	ts := int64(1_700_000_000_000)
	for i := range pts {
		ts += rng.Int63n(5000)
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-3))
		if res == Raw {
			pts[i] = rawPoint(ts, v)
			continue
		}
		lo, hi := v-rng.Float64(), v+rng.Float64()
		count := uint64(1 + rng.Intn(40))
		pts[i] = Point{UnixMs: ts, Count: count, Min: lo, Max: hi, Sum: v * float64(count)}
	}
	return pts
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, res := range Tiers {
		var enc []byte
		var want []Point
		for b := 0; b < 5; b++ { // several blocks in one stream
			pts := randomPoints(rng, 1+rng.Intn(50), res)
			enc = appendBlock(enc, res, pts)
			want = append(want, pts...)
		}
		got, truncated, err := decodeBlocks(nil, res, enc)
		if err != nil || truncated {
			t.Fatalf("%s: decode err=%v truncated=%v", res, err, truncated)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip mismatch: got %d points, want %d", res, len(got), len(want))
		}
	}
}

// TestDecodeTornTail truncates an encoded stream at every possible byte
// boundary: the decoder must never panic or error, and must return
// exactly the points of the whole blocks before the cut.
func TestDecodeTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var enc []byte
	var blockEnds []int
	var want []Point
	perBlock := [][]Point{}
	for b := 0; b < 4; b++ {
		pts := randomPoints(rng, 3+rng.Intn(10), Raw)
		enc = appendBlock(enc, Raw, pts)
		blockEnds = append(blockEnds, len(enc))
		perBlock = append(perBlock, pts)
		want = append(want, pts...)
	}
	for cut := 0; cut <= len(enc); cut++ {
		got, truncated, err := decodeBlocks(nil, Raw, enc[:cut])
		if err != nil {
			t.Fatalf("cut %d: err = %v", cut, err)
		}
		var expect []Point
		for i, end := range blockEnds {
			if cut >= end {
				expect = append(expect, perBlock[i]...)
			}
		}
		// truncated is reported exactly when the cut leaves a partial
		// block behind, i.e. the cut is not a block boundary.
		wantTrunc := cut != 0
		for _, end := range blockEnds {
			if cut == end {
				wantTrunc = false
			}
		}
		if truncated != wantTrunc {
			t.Fatalf("cut %d: truncated = %v, want %v", cut, truncated, wantTrunc)
		}
		if !reflect.DeepEqual(got, expect) {
			t.Fatalf("cut %d: got %d points, want %d", cut, len(got), len(expect))
		}
	}
}

// TestDecodeCorruptBlock flips one byte inside a block payload: the
// checksum must catch it and the decoder must stop cleanly before it.
func TestDecodeCorruptBlock(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(3)), 20, R10s)
	enc := appendBlock(nil, R10s, pts[:10])
	firstLen := len(enc)
	enc = appendBlock(enc, R10s, pts[10:])
	enc[firstLen+8] ^= 0xFF // inside the second block's payload
	got, truncated, err := decodeBlocks(nil, R10s, enc)
	if err != nil || !truncated {
		t.Fatalf("decode err=%v truncated=%v, want clean truncation", err, truncated)
	}
	if !reflect.DeepEqual(got, pts[:10]) {
		t.Fatalf("got %d points, want the 10 before the corrupt block", len(got))
	}
}

func TestSegmentHeaderRoundTrip(t *testing.T) {
	for _, class := range []telemetry.Class{telemetry.Result, telemetry.Arrangement, telemetry.WallClock} {
		want := segHeader{R1m, "gauge", class, "sweep.depth"}
		h, rest, err := parseSegmentHeader(append([]byte(want.String()), 0xAB))
		if err != nil || h != want || len(rest) != 1 || rest[0] != 0xAB {
			t.Fatalf("parse %q = %+v %v %v", want, h, rest, err)
		}
	}
	for hdr, want := range map[string]string{
		"BOGUS 2 raw counter result x\n": "bad header",
		"OTSD 99 raw counter result x\n": "unsupported",
		"OTSD 2 raw counter bogus x\n":   "unknown metric class",
		"OTSD 2 raw counter result\n":    "bad header",
		"no newline":                     "no header line",
		"OTSD 1 raw counter x\n":         "re-record",
	} {
		_, _, err := parseSegmentHeader([]byte(hdr))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parse %q: err = %v, want one containing %q", hdr, err, want)
		}
	}
	// A version-1 run is refused by name, not skipped as unreadable.
	root := t.TempDir()
	dir := filepath.Join(root, "old", Raw.String())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.00000.tsd"), []byte("OTSD 1 raw counter x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(root).Metrics("old"); !errors.Is(err, errOldFormat) {
		t.Errorf("Metrics over a version-1 run: err = %v, want the re-record refusal", err)
	}
}

func TestClockMonotonic(t *testing.T) {
	var c monoClock
	t0 := time.UnixMilli(10_000)
	if ms := c.UnixMs(t0); ms != 10_000 {
		t.Fatalf("first sample ms = %d", ms)
	}
	if ms := c.UnixMs(t0.Add(250 * time.Millisecond)); ms != 10_250 {
		t.Fatalf("advance ms = %d", ms)
	}
	// A wall-clock step backwards must clamp, not go out of order.
	if ms := c.UnixMs(t0.Add(-time.Hour)); ms != 10_250 {
		t.Fatalf("backward step ms = %d, want clamp at 10250", ms)
	}
	if ms := c.UnixMs(t0.Add(time.Second)); ms != 11_000 {
		t.Fatalf("recovery ms = %d", ms)
	}
}
