package spans

import (
	"sort"
	"time"
)

// Summary is the aggregate view of a tracer served by the obs server's
// /spans endpoint: where the wall-clock went per phase (span name) and
// per lane, with pool-worker utilization and worker imbalance.
type Summary struct {
	// ElapsedSeconds is wall-clock since the tracer epoch at
	// summarize time.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Recorded       int     `json:"recorded"`
	Dropped        uint64  `json:"dropped"`

	// Phases aggregates completed spans by name, sorted by descending
	// total time. SelfSeconds excludes time attributed to recorded
	// child spans, so a phase that merely contains instrumented work
	// does not double-count it.
	Phases []PhaseStat `json:"phases"`

	// Lanes reports per-lane activity. For worker lanes, utilization
	// is busy time over the lane's active window.
	Lanes []LaneStat `json:"lanes"`

	// WorkerImbalance is max/mean busy time across worker lanes (1.0
	// means perfectly balanced workers; 0 when there are no worker
	// lanes). It shows how evenly the sweep's workers, claiming
	// simulator units heaviest first within each batch, share their
	// unequal costs.
	WorkerImbalance float64 `json:"worker_imbalance"`

	// Open lists spans still in flight, outermost first.
	Open []OpenSpan `json:"open"`
}

// PhaseStat aggregates the completed spans sharing one name.
type PhaseStat struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	SelfSeconds  float64 `json:"self_seconds"`
}

// LaneStat is one lane's activity summary.
type LaneStat struct {
	Name   string `json:"name"`
	Worker bool   `json:"worker"`
	Spans  uint64 `json:"spans"`
	// BusySeconds sums the lane's completed top-level spans; WallSeconds
	// spans the lane's first span start to its last span end.
	BusySeconds    float64 `json:"busy_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	UtilizationPct float64 `json:"utilization_pct"`
}

// OpenSpan is one still-running span in the live tree.
type OpenSpan struct {
	ID           uint64  `json:"id"`
	Parent       uint64  `json:"parent"`
	Lane         string  `json:"lane"`
	Name         string  `json:"name"`
	StartSeconds float64 `json:"start_seconds"`
	AgeSeconds   float64 `json:"age_seconds"`
}

// Summarize computes the aggregate view of everything recorded so far.
// Safe to call while lanes are recording; a nil tracer returns a zero
// summary.
func (t *Tracer) Summarize() Summary {
	var s Summary
	if t == nil {
		return s
	}
	now := time.Since(t.epoch)
	s.ElapsedSeconds = now.Seconds()

	t.mu.Lock()
	recs := append([]Record(nil), t.recs...)
	s.Recorded = len(recs)
	s.Dropped = t.dropped
	type laneSnap struct {
		name        string
		worker      bool
		spans       uint64
		busy        time.Duration
		first, last time.Duration
		hasFirst    bool
	}
	lanes := make([]laneSnap, 0, len(t.lanes))
	for _, l := range t.lanes {
		lanes = append(lanes, laneSnap{
			name: l.name, worker: l.worker,
			spans: l.spans.Load(), busy: time.Duration(l.busy.Load()),
			first: l.first, last: l.last, hasFirst: l.hasFirst,
		})
	}
	for _, sp := range t.open {
		s.Open = append(s.Open, OpenSpan{
			ID: sp.id, Parent: sp.parent, Lane: sp.lane.name, Name: sp.name,
			StartSeconds: sp.start.Seconds(),
			AgeSeconds:   (now - sp.start).Seconds(),
		})
	}
	t.mu.Unlock()

	sort.Slice(s.Open, func(i, j int) bool {
		if s.Open[i].StartSeconds != s.Open[j].StartSeconds {
			return s.Open[i].StartSeconds < s.Open[j].StartSeconds
		}
		return s.Open[i].ID < s.Open[j].ID
	})

	// Self-time: each recorded span's duration minus its recorded
	// children's durations.
	childSum := make(map[uint64]time.Duration)
	for _, r := range recs {
		if r.Parent != 0 {
			childSum[r.Parent] += r.Dur
		}
	}
	byName := make(map[string]*PhaseStat)
	for _, r := range recs {
		p := byName[r.Name]
		if p == nil {
			p = &PhaseStat{Name: r.Name}
			byName[r.Name] = p
		}
		p.Count++
		p.TotalSeconds += r.Dur.Seconds()
		self := r.Dur - childSum[r.ID]
		if self > 0 {
			p.SelfSeconds += self.Seconds()
		}
	}
	s.Phases = make([]PhaseStat, 0, len(byName))
	for _, p := range byName {
		s.Phases = append(s.Phases, *p)
	}
	sort.Slice(s.Phases, func(i, j int) bool {
		if s.Phases[i].TotalSeconds != s.Phases[j].TotalSeconds {
			return s.Phases[i].TotalSeconds > s.Phases[j].TotalSeconds
		}
		return s.Phases[i].Name < s.Phases[j].Name
	})

	var workerBusy []time.Duration
	for _, l := range lanes {
		st := LaneStat{
			Name: l.name, Worker: l.worker, Spans: l.spans,
			BusySeconds: l.busy.Seconds(),
		}
		if l.hasFirst {
			wall := l.last - l.first
			st.WallSeconds = wall.Seconds()
			if wall > 0 {
				st.UtilizationPct = 100 * float64(l.busy) / float64(wall)
			}
		}
		s.Lanes = append(s.Lanes, st)
		if l.worker {
			workerBusy = append(workerBusy, l.busy)
		}
	}
	if n := len(workerBusy); n > 0 {
		var max, sum time.Duration
		for _, b := range workerBusy {
			sum += b
			if b > max {
				max = b
			}
		}
		if sum > 0 {
			mean := float64(sum) / float64(n)
			s.WorkerImbalance = float64(max) / mean
		}
	}
	return s
}
