package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the "tail" is a single unlucky op.
const tailBeyond = 10

// sample is one metric's observations within a run (one per op).
type sample []float64

func (s sample) sorted() []float64 {
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return xs
}

// median is the middle observation (the mean of the two middle ones for
// an even count); 0 for an empty sample.
func (s sample) median() float64 {
	xs := s.sorted()
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(data, n=4) (the "exclusive" method), so
// the spreads printed here and those computed from the reported values
// agree. A single observation is its own quartiles.
func (s sample) quartiles() (q1, q3 float64) {
	xs := s.sorted()
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tail returns the latency at the highest percentile that still has
// tailBeyond samples above it: the (tailBeyond+1)-th largest sample, at
// percentile 100*(n-tailBeyond)/n. ok is false when that percentile
// would be p50 or below, where a "tail" is no longer one.
func (s sample) tail() (pct, value float64, ok bool) {
	n := len(s)
	k := n - tailBeyond // 1-based rank of the tail sample
	if k < 1 {
		return 0, 0, false
	}
	pct = 100 * float64(k) / float64(n)
	if pct <= 50 {
		return pct, 0, false
	}
	return pct, s.sorted()[k-1], true
}

// tally counts attempted and failed ops. An op fails on an experiment
// error, a non-200 answer, a transport error, or an output-check
// mismatch.
type tally struct {
	attempted, failed int
}

// record counts one attempted op, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

// failPct is failed / attempted x 100 (0 before any attempt).
func (t tally) failPct() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 100 * float64(t.failed) / float64(t.attempted)
}

// metric is one reported figure: its value, unit and, for figures
// derived from per-op observations, the sample behind it.
type metric struct {
	name  string
	value float64
	unit  string
	// note qualifies the figure (host or simulated time, percentile).
	note string
	// spread, when non-nil, is the per-op sample the value summarizes;
	// its count and quartiles are printed beside the value.
	spread sample
}

func (m metric) String() string {
	s := fmt.Sprintf("%-32s %14.6g %-6s", m.name, m.value, m.unit)
	if m.spread != nil {
		q1, q3 := m.spread.quartiles()
		s += fmt.Sprintf(" n=%-5d q1=%-12.6g q3=%-12.6g", len(m.spread), q1, q3)
	}
	if m.note != "" {
		s += " " + m.note
	}
	return s
}
