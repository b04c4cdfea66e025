package spans

import (
	"sort"
	"time"
)

// Summary is the self time of a tracer's completed spans, per span
// name. perfbench's ledger reads it to report the time that none of its
// measured layers accounts for.
type Summary struct {
	Phases []PhaseStat // sorted by name
}

// PhaseStat is the self time of the completed spans sharing one name:
// their durations less those of their recorded children.
type PhaseStat struct {
	Name        string
	SelfSeconds float64
}

// Summarize computes the summary of the spans completed so far. A nil
// tracer returns an empty summary.
func (t *Tracer) Summarize() Summary {
	recs := t.Records()
	childSum := make(map[uint64]time.Duration)
	for _, r := range recs {
		if r.Parent != 0 {
			childSum[r.Parent] += r.Dur
		}
	}
	self := make(map[string]time.Duration)
	for _, r := range recs {
		self[r.Name] += max(r.Dur-childSum[r.ID], 0)
	}
	var s Summary
	for name, d := range self {
		s.Phases = append(s.Phases, PhaseStat{Name: name, SelfSeconds: d.Seconds()})
	}
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Name < s.Phases[j].Name })
	return s
}
