package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"onchip/internal/experiments"
	"onchip/internal/search"
	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

// tracedRun is the per-layer run of a workload, never mixed with timed
// runs: the outside-in ledger over the workload's streams, traced and
// untraced ops of the workload for the fused pipeline's split and the
// spans overhead, and (advisor-mix) the advisor's own metrics.
func tracedRun(name string, seed int64, seconds float64, workdir string) (*report, error) {
	rep := &report{}
	tr := spans.New(0)
	led := newLedger(tr)
	root := led.lane.Start("ledger")
	for i, s := range workloadStreams(name, seed) {
		if err := led.stream(s, filepath.Join(workdir, fmt.Sprintf("ledger-%s-%d", name, i))); err != nil {
			root.End()
			return nil, err
		}
	}
	top, err := led.searchLayers(rep)
	root.End()
	if err != nil {
		return nil, err
	}
	led.layerMetrics(rep)
	table, unattributed := led.layerTable()
	rep.notes = append(rep.notes, strings.Split(strings.TrimRight(table, "\n"), "\n")...)
	rep.add(metric{name: "ledger.unattributed_ms", value: unattributed, unit: "ms", note: "host; ledger time no layer span covers"})
	ledgerTrace := filepath.Join(workdir, name+"-ledger.trace.json")
	if err := spans.WriteFile(ledgerTrace, tr); err != nil {
		return nil, err
	}
	rep.notef("ledger Chrome trace: %s", ledgerTrace)

	var ops opSplit
	if name == "advisor-mix" {
		ops, err = tracedAdvisor(rep, seed, seconds, workdir)
	} else {
		ops, err = tracedSuite(rep, suites[name], seconds)
		rep.notef("advisor.* metrics: %s never starts the advisor; only advisor-mix measures that layer", name)
	}
	if err != nil {
		return nil, err
	}
	ops.report(rep, name)
	opTrace := filepath.Join(workdir, name+"-op.trace.json")
	if err := spans.WriteFile(opTrace, ops.lastTracer); err != nil {
		return nil, err
	}
	rep.notef("traced-op Chrome trace: %s", opTrace)

	checkLedger(rep, name, led, top, ops.lastResult)
	return rep, nil
}

// checkLedger confirms the ledger reproduces the pipeline it takes
// apart: on table6 its exhaustive top-10 renders as Table 6's rows; on
// stall-suite its per-OS machine CPIs equal Table 4's averages.
func checkLedger(rep *report, name string, led *ledger, top []search.Allocation, res experiments.Result) {
	var err error
	switch name {
	case "table6":
		rows := table6Rows(res)
		for i, a := range top {
			got := strings.Fields(fmt.Sprintf("%d %s %s %s %.0f %.3f", i+1, a.TLB, a.ICache, a.DCache, a.AreaRBE, a.CPI))
			if i >= len(rows) || strings.Join(rows[i], " ") != strings.Join(got, " ") {
				err = fmt.Errorf("ledger rank %d %v differs from Table 6", i+1, got)
				break
			}
		}
	case "stall-suite":
		var avg map[string]float64
		avg, err = table4Averages(res)
		ledgerAvg := led.machineAverages()
		for _, osName := range []string{"Ultrix", "Mach"} {
			got := ledgerAvg[osName]
			if err == nil && fmt.Sprintf("%.2f", got) != fmt.Sprintf("%.2f", avg[osName]) {
				err = fmt.Errorf("ledger %s machine CPI %.4f differs from Table 4's average %.2f", osName, got, avg[osName])
			}
		}
	default:
		return
	}
	rep.tally.record(err)
	if err != nil {
		rep.notef("ledger check failed: %v", err)
	} else {
		rep.notef("ledger check passed: the ledger's model reproduces %s", name)
	}
}

// opSplit is what the traced and untraced ops of a workload showed.
type opSplit struct {
	untraced, traced           sample // op latencies, ms
	sweepMS, searchMS, busyPct sample // per traced op
	shards                     float64
	lastTracer                 *spans.Tracer
	lastResult                 experiments.Result
	note                       string
}

func (o opSplit) report(rep *report, name string) {
	overhead := 0.0
	if u := o.untraced.median(); u > 0 {
		overhead = 100 * (o.traced.median() - u) / u
	}
	if o.note != "" {
		rep.notef("%s", o.note)
	}
	rep.add(metric{name: "experiments.sweep_ms", value: o.sweepMS.median(), unit: "ms", spread: o.sweepMS, note: "host; model-building sweep of a traced op"})
	rep.add(metric{name: "experiments.search_ms", value: o.searchMS.median(), unit: "ms", spread: o.searchMS, note: "host; enumeration of a traced op"})
	rep.add(metric{name: "experiments.pool_busy_pct", value: o.busyPct.median(), unit: "%", spread: o.busyPct, note: "sum of sweep.job / (workers x sweep)"})
	rep.add(metric{name: "experiments.shards", value: o.shards, unit: "count", note: "set shards per simulator group"})
	rep.add(metric{name: "experiments.spans_overhead_pct", value: overhead, unit: "%", spread: o.traced,
		note: fmt.Sprintf("host; traced op p50 %.1f ms vs untraced p50 %.1f ms (%d untraced ops)", o.traced.median(), o.untraced.median(), len(o.untraced))})
}

// pipelineSplit reads the fused pipeline's split from one traced op's
// spans and registry. opSpan is the benchmark's own span around the op.
func (o *opSplit) pipelineSplit(tr *spans.Tracer, reg *telemetry.Registry, opSpan string) {
	var sweep, search, jobs time.Duration
	var sweepLo, sweepHi, opEnd time.Duration = -1, 0, 0
	for _, r := range tr.Records() {
		switch r.Name {
		case "sweep.model":
			sweep += r.Dur
		case "search.enumerate":
			search += r.Dur
		case "sweep.job":
			jobs += r.Dur
		case "sweep.workload":
			if sweepLo < 0 || r.Start < sweepLo {
				sweepLo = r.Start
			}
			sweepHi = max(sweepHi, r.Start+r.Dur)
		case opSpan:
			opEnd = r.Start + r.Dur
		}
	}
	// The advisor's pipeline records no sweep.model or search.enumerate
	// span: its sweep is the extent of the workload sweeps and its search
	// the rest of the op.
	if sweep == 0 && sweepLo >= 0 {
		sweep = sweepHi - sweepLo
		search = opEnd - sweepHi
	}
	workers := 0.0
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "sweep.workers":
			workers = m.Value
		case "sweep.shards":
			o.shards = m.Value
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	o.sweepMS = append(o.sweepMS, ms(sweep))
	o.searchMS = append(o.searchMS, ms(search))
	busy := 0.0
	if workers > 0 && sweep > 0 {
		busy = 100 * float64(jobs) / (workers * float64(sweep))
	}
	o.busyPct = append(o.busyPct, busy)
}

// alternate runs untraced and traced ops in turn for the given time (at
// least one pair), so both see the same machine conditions.
func alternate(seconds float64, untraced func() error, traced func() error) error {
	budget := time.Duration(seconds * float64(time.Second))
	for start, first := time.Now(), true; first || time.Since(start) < budget; first = false {
		if err := untraced(); err != nil {
			return err
		}
		if err := traced(); err != nil {
			return err
		}
	}
	return nil
}

// tracedSuite alternates untraced and traced ops of table6 or table4;
// every op must render identically to the first.
func tracedSuite(rep *report, w suiteWorkload, seconds float64) (opSplit, error) {
	var o opSplit
	ref := ""
	if _, _, err := w.runOp(ref); err != nil { // warm-up, as in the timed run
		return o, err
	}
	untraced := func() error {
		res, d, err := w.runOp(ref)
		rep.tally.record(err)
		if err != nil {
			return err
		}
		if ref == "" {
			ref = rendered(res)
		}
		o.untraced = append(o.untraced, float64(d)/float64(time.Millisecond))
		return nil
	}
	traced := func() error {
		tr, reg := spans.New(0), telemetry.NewRegistry()
		lane := tr.Lane("main")
		span := lane.Start("op")
		start := time.Now()
		res, err := experiments.Run(w.experiment, experiments.Options{Spans: tr, Metrics: reg})
		d := time.Since(start)
		span.End()
		if err == nil && rendered(res) != ref {
			err = fmt.Errorf("traced %s output differs from the untraced op's", w.experiment)
		}
		rep.tally.record(err)
		if err != nil {
			return err
		}
		o.traced = append(o.traced, float64(d)/float64(time.Millisecond))
		o.pipelineSplit(tr, reg, "op")
		o.lastTracer, o.lastResult = tr, res
		return nil
	}
	if err := alternate(seconds, untraced, traced); err != nil {
		return o, err
	}
	if w.experiment == "table4" {
		o.note = "experiments.sweep_ms, search_ms, pool_busy_pct and shards are 0: table4 runs the timing machine, not the sweep or search"
	}
	return o, nil
}

// tracedAdvisor runs the advisor-mix traffic for half the time to
// snapshot the server's metrics, then alternates untraced and traced
// direct experiments.Advise ops of the script's first table5 question
// on the deployment's warm trace cache.
func tracedAdvisor(rep *report, seed int64, seconds float64, workdir string) (opSplit, error) {
	var o opSplit
	m, err := mixSetup(seed, workdir)
	if err != nil {
		return o, err
	}
	defer m.close()
	run := m.timed(seconds / 2)
	rep.tally.attempted += run.tally.attempted
	rep.tally.failed += run.tally.failed
	for _, f := range run.notes {
		rep.notef("%s", f)
	}
	clientLat := run.qlat
	for _, a := range m.recAns {
		clientLat = append(clientLat, float64(a.dur)/float64(time.Millisecond))
	}
	serverLedger(rep, m.srv.Metrics(), clientLat)

	tc, err := tracecache.Open(m.dir)
	if err != nil {
		return o, err
	}
	var q experiments.AdviseRequest
	for _, c := range m.qs {
		if c.Space == "table5" {
			q = c
			break
		}
	}
	if err := q.Normalize(0); err != nil {
		return o, err
	}
	var ref []byte
	untraced := func() error {
		start := time.Now()
		resp, err := experiments.Advise(q, experiments.Options{TraceCache: tc})
		dur := time.Since(start)
		var body []byte
		if err == nil {
			body, err = json.Marshal(resp)
		}
		if err == nil && ref != nil && !bytes.Equal(body, ref) {
			err = fmt.Errorf("untraced answer differs from the first")
		}
		rep.tally.record(err)
		if err != nil {
			return err
		}
		ref = body
		o.untraced = append(o.untraced, float64(dur)/float64(time.Millisecond))
		return nil
	}
	traced := func() error {
		tr, reg := spans.New(0), telemetry.NewRegistry()
		span := tr.Lane("main").Start("advise")
		start := time.Now()
		resp, err := experiments.Advise(q, experiments.Options{TraceCache: tc, Spans: tr, Metrics: reg})
		dur := time.Since(start)
		span.End()
		var body []byte
		if err == nil {
			body, err = json.Marshal(resp)
		}
		if err == nil && !bytes.Equal(body, ref) {
			err = fmt.Errorf("traced answer differs from the untraced one")
		}
		rep.tally.record(err)
		if err != nil {
			return err
		}
		o.traced = append(o.traced, float64(dur)/float64(time.Millisecond))
		o.pipelineSplit(tr, reg, "advise")
		o.lastTracer = tr
		return nil
	}
	return o, alternate(seconds/2, untraced, traced)
}
