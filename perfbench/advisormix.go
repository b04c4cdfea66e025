package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"onchip/internal/advisor"
	"onchip/internal/experiments"
	"onchip/internal/obs"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
	"onchip/internal/workload"
)

// Question-script parameters. Every question simulates 100,000
// references per workload, so cheetah does little and exhaustive
// Table 5 pricing dominates a computed table5 question.
const (
	scriptRefs = 100_000
	scriptLen  = 600 // more questions than a 60-second run can ask
	// scriptBlock is the length of the script's blocks; the questioner
	// times a whole block as one op.
	scriptBlock = 6
	// Budgets are drawn in 1000-rbe steps from [200,000, 300,000],
	// centred on the paper's 250,000-rbe budget.
	budgetLo, budgetSteps = 200_000, 101
	// repeaterThink is the repeater's pause between hits: frequent
	// enough for hundreds of hits per run, rare enough that the hits'
	// own CPU stays a small share of the questioner's.
	repeaterThink = 25 * time.Millisecond
)

// script draws the seeded question script: distinct questions in
// blocks of six, each block holding four table5 and two big-space
// questions (the 2:1 mix of the advisor's two spaces), half of each
// with one workload and half with two, in a seeded order. OS,
// workloads, budget and top come from the seed.
func script(seed int64) []experiments.AdviseRequest {
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	shapes := [scriptBlock]struct {
		space string
		mix   int
	}{{"table5", 1}, {"table5", 1}, {"table5", 2}, {"table5", 2}, {"big", 1}, {"big", 2}}
	seen := map[string]bool{}
	var qs []experiments.AdviseRequest
	for len(qs) < scriptLen {
		rng.Shuffle(scriptBlock, func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
		for _, sh := range shapes {
			for {
				q := experiments.AdviseRequest{
					OS:        []string{"Mach", "Ultrix"}[rng.Intn(2)],
					Refs:      scriptRefs,
					BudgetRBE: float64(budgetLo + 1000*rng.Intn(budgetSteps)),
					Top:       1 + rng.Intn(20),
					Space:     sh.space,
				}
				for _, i := range rng.Perm(len(names))[:sh.mix] {
					q.Workloads = append(q.Workloads, names[i])
				}
				n := q
				if err := n.Normalize(0); err != nil {
					panic(err) // the script only draws valid questions
				}
				if sig := n.Signature(); !seen[sig] {
					seen[sig] = true
					qs = append(qs, q)
					break
				}
			}
		}
	}
	return qs[:scriptLen]
}

// recordingQuestions are the questions set-up asks: one per OS over
// every workload the script uses under it, so their computation
// records each (OS, workload) stream in the trace cache. The repeater
// re-asks them, so they are also the LRU hits.
func recordingQuestions(qs []experiments.AdviseRequest) []experiments.AdviseRequest {
	used := map[string]map[string]bool{}
	for _, q := range qs {
		if used[q.OS] == nil {
			used[q.OS] = map[string]bool{}
		}
		for _, w := range q.Workloads {
			used[q.OS][w] = true
		}
	}
	var rec []experiments.AdviseRequest
	for _, osName := range []string{"Mach", "Ultrix"} {
		if len(used[osName]) == 0 {
			continue
		}
		q := experiments.AdviseRequest{OS: osName, Refs: scriptRefs}
		for w := range used[osName] {
			q.Workloads = append(q.Workloads, w)
		}
		sort.Strings(q.Workloads)
		rec = append(rec, q)
	}
	return rec
}

// answer is one HTTP exchange with the advisor.
type answer struct {
	status int
	source string // X-Advisor-Source: run, cache or dedup
	body   []byte
	dur    time.Duration
}

// ask posts one question over the client's connection.
func ask(client *http.Client, url string, q experiments.AdviseRequest) (answer, error) {
	payload, err := json.Marshal(q)
	if err != nil {
		return answer{}, err
	}
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return answer{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{status: resp.StatusCode, source: resp.Header.Get("X-Advisor-Source"), body: body, dur: time.Since(start)}
	if err != nil {
		return a, err
	}
	if a.status != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", a.status, bytes.TrimSpace(body))
	}
	return a, nil
}

// advisorDeployment is the advisor as the README deploys it: default
// Server settings plus a trace cache, mounted on the obs-hardened HTTP
// server on loopback.
type advisorDeployment struct {
	dir  string
	srv  *advisor.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

func deploy(workdir string) (*advisorDeployment, error) {
	dir, err := os.MkdirTemp(workdir, "advisor-mix-")
	if err != nil {
		return nil, err
	}
	tc, err := tracecache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &advisorDeployment{dir: dir, srv: advisor.New(advisor.Config{TraceCache: tc}), done: make(chan struct{})}
	d.http = obs.NewHTTPServer(d.srv.Handler())
	d.url = "http://" + ln.Addr().String() + "/advise"
	go func() {
		defer close(d.done)
		d.http.Serve(ln)
	}()
	return d, nil
}

// close stops the server, waits for its serve loop and removes the
// trace cache.
func (d *advisorDeployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	<-d.done
	d.srv.Drain()
	os.RemoveAll(d.dir)
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// mix is one set-up advisor-mix: the deployment, the question script,
// and the recording questions with their computed answers, which the
// repeater will hit.
type mix struct {
	*advisorDeployment
	qs, rec []experiments.AdviseRequest
	recAns  []answer
}

// mixSetup is one set-up round: input generation, server start, and the
// recording questions.
func mixSetup(seed int64, workdir string) (*mix, error) {
	m := &mix{qs: script(seed)}
	m.rec = recordingQuestions(m.qs)
	d, err := deploy(workdir)
	if err != nil {
		return nil, err
	}
	m.advisorDeployment = d
	client := newClient()
	defer client.CloseIdleConnections()
	for _, q := range m.rec {
		a, err := ask(client, d.url, q)
		if err == nil && a.source != "run" {
			err = fmt.Errorf("recording question answered from %q, want run", a.source)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("recording question %v/%v: %w", q.OS, q.Workloads, err)
		}
		m.recAns = append(m.recAns, a)
	}
	return m, nil
}

// mixRun is what the timed phase of advisor-mix observed. An op of
// the questioner is one block of scriptBlock questions.
type mixRun struct {
	lat, allocMB sample // per block
	qlat         sample // per computed question, for the server ledger
	hits         sample
	tally        tally
	computed     map[int][]byte // script index -> body of a successful question
	failed       map[int]bool   // blocks already counted as failed
	notes        []string       // failures and the oracle's summary
	hitsAsked    int
}

// advisorMix runs the advisor-mix workload: set-up rounds, then the
// questioner (closed loop, back to back, distinct computed questions,
// timed a block at a time) and the repeater (closed loop with think
// time, LRU hits timed while a computation holds the cores), then the
// oracle check of every distinct answer.
func advisorMix(seed int64, seconds float64, workdir string) (*report, error) {
	rep := &report{}
	m, setup, err := mixSetupRounds(seed, workdir)
	if err != nil {
		return nil, err
	}
	defer m.close()
	run := m.timed(seconds)
	m.oracleCheck(&run)
	rep.tally = run.tally
	for _, f := range run.notes {
		rep.notef("%s", f)
	}

	rep.add(metric{name: "setup_s", value: setup.median(), unit: "s", spread: setup,
		note: "host; median of the set-up rounds: script, server start, recording questions"})
	rep.closedLoop(run.lat, run.allocMB)
	rep.notef("an op is a block of %d questions (4 table5, 2 big); %d questions computed", scriptBlock, len(run.qlat))
	rep.add(metric{name: "hit_p50_ms", value: run.hits.median(), unit: "ms", spread: run.hits,
		note: fmt.Sprintf("host; repeater LRU hits during computations (%d asked)", run.hitsAsked)})
	if pct, v, ok := run.hits.tail(); ok {
		rep.add(metric{name: "hit_tail_ms", value: v, unit: "ms", spread: run.hits,
			note: fmt.Sprintf("host; p%.1f, %d samples beyond it", pct, tailBeyond)})
	}
	return rep, nil
}

// mixSetupRounds sets up setupRounds times and keeps the last mix for
// the timed phase.
func mixSetupRounds(seed int64, workdir string) (*mix, sample, error) {
	var setup sample
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		m, err := mixSetup(seed, workdir)
		if err != nil {
			return nil, nil, fmt.Errorf("setup round %d: %w", i+1, err)
		}
		setup = append(setup, time.Since(start).Seconds())
		if i == setupRounds-1 {
			return m, setup, nil
		}
		m.close()
	}
}

// timed drives the questioner and the repeater for the given time.
func (m *mix) timed(seconds float64) mixRun {
	run := mixRun{computed: map[int][]byte{}, failed: map[int]bool{}}
	var computing atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hits mixRun // the repeater's own account, merged after it stops
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := newClient()
		defer client.CloseIdleConnections()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(repeaterThink):
			}
			if !computing.Load() {
				continue
			}
			k := i % len(m.rec)
			a, err := ask(client, m.url, m.rec[k])
			if err == nil && a.source != "cache" {
				err = fmt.Errorf("answered from %q, want cache", a.source)
			}
			if err == nil && !bytes.Equal(a.body, m.recAns[k].body) {
				err = fmt.Errorf("body differs from its computed twin")
			}
			hits.tally.record(err)
			if err != nil {
				hits.notes = append(hits.notes, fmt.Sprintf("hit %d (%s): %v", hits.tally.attempted, m.rec[k].OS, err))
			} else if computing.Load() {
				hits.hits = append(hits.hits, float64(a.dur)/float64(time.Millisecond))
			}
		}
	}()

	client := newClient()
	defer client.CloseIdleConnections()
	var ms runtime.MemStats
	budget := time.Duration(seconds * float64(time.Second))
	for blk, start := 0, time.Now(); (blk+1)*scriptBlock <= len(m.qs) && (time.Since(start) < budget || blk == 0); blk++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var blockErr error
		blockStart := time.Now()
		for i := blk * scriptBlock; i < (blk+1)*scriptBlock; i++ {
			computing.Store(true)
			a, err := ask(client, m.url, m.qs[i])
			computing.Store(false)
			if err == nil && a.source != "run" {
				err = fmt.Errorf("answered from %q, want run", a.source)
			}
			if err != nil {
				run.notes = append(run.notes, fmt.Sprintf("question %d: %v", i, err))
				blockErr = err
				continue
			}
			run.computed[i] = a.body
			run.qlat = append(run.qlat, float64(a.dur)/float64(time.Millisecond))
		}
		d := time.Since(blockStart)
		runtime.ReadMemStats(&ms)
		run.tally.record(blockErr)
		if blockErr != nil {
			run.failed[blk] = true
			continue
		}
		run.lat = append(run.lat, float64(d)/float64(time.Millisecond))
		run.allocMB = append(run.allocMB, float64(ms.TotalAlloc-before)/(1<<20))
	}
	close(stop)
	wg.Wait()
	run.hits, run.hitsAsked = hits.hits, hits.tally.attempted
	run.tally.attempted += hits.tally.attempted
	run.tally.failed += hits.tally.failed
	run.notes = append(run.notes, hits.notes...)
	return run
}

// oracleCheck compares every distinct 200 body with a direct
// experiments.Advise answer for its normalized request, two at a time
// (after the timed phase, so the oracle does not perturb timings). A
// mismatching questioner answer fails its block's op; a mismatching
// recording answer fails every hit that matched it, which is counted
// as one more failed op.
func (m *mix) oracleCheck(run *mixRun) {
	type job struct {
		q     experiments.AdviseRequest
		body  []byte
		name  string
		block int // -1 for a recording question
	}
	var jobs []job
	for i, q := range m.rec {
		jobs = append(jobs, job{q, m.recAns[i].body, fmt.Sprintf("recording question %s", q.OS), -1})
	}
	idx := make([]int, 0, len(run.computed))
	for i := range run.computed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		jobs = append(jobs, job{m.qs[i], run.computed[i], fmt.Sprintf("question %d (%s)", i, m.qs[i].Space), i / scriptBlock})
	}
	mismatch := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				mismatch[k] = oracleAnswer(jobs[k].q, jobs[k].body)
			}
		}()
	}
	wg.Wait()
	for k, err := range mismatch {
		if err == nil {
			continue
		}
		j := jobs[k]
		run.notes = append(run.notes, fmt.Sprintf("oracle: %s: %v", j.name, err))
		switch {
		case j.block < 0:
			run.tally.attempted++
			run.tally.failed++
		case !run.failed[j.block]:
			run.failed[j.block] = true
			run.tally.failed++
		}
	}
	run.notes = append(run.notes, fmt.Sprintf("oracle: %d distinct answers checked against direct experiments.Advise runs", len(jobs)))
}

// oracleAnswer recomputes q directly and compares the marshalled
// answer with body byte for byte.
func oracleAnswer(q experiments.AdviseRequest, body []byte) error {
	if err := q.Normalize(0); err != nil {
		return err
	}
	resp, err := experiments.Advise(q, experiments.Options{})
	if err != nil {
		return err
	}
	want, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	want = append(want, '\n')
	if !bytes.Equal(want, body) {
		i := 0
		for i < len(want) && i < len(body) && want[i] == body[i] {
			i++
		}
		lo := max(i-40, 0)
		return fmt.Errorf("answer differs from the direct run at byte %d: served %q, direct %q",
			i, body[lo:min(i+24, len(body))], want[lo:min(i+24, len(want))])
	}
	return nil
}

// serverLedger adds the advisor layer's per-layer metrics from the
// server's registry. clientLat holds the client-side latencies (ms) of
// every computed request the server's latency histogram observed; the
// histogram's log2 buckets give its p50 only as a bucket edge, so the
// exact mean is reported beside it and the queueing estimate compares
// exact means.
func serverLedger(rep *report, reg *telemetry.Registry, clientLat sample) {
	var computeP50, computeMean float64
	counts := map[string]float64{}
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "advisor.latency_us":
			computeP50 = histP50(m) / 1000
			if m.Count > 0 {
				computeMean = float64(m.Sum) / float64(m.Count) / 1000
			}
		case "advisor.cache_hits", "advisor.dedup", "advisor.shed", "advisor.errors":
			counts[m.Name] = m.Value
		}
	}
	var clientMean float64
	for _, l := range clientLat {
		clientMean += l / float64(len(clientLat))
	}
	rep.add(metric{name: "advisor.compute_p50_ms", value: computeP50, unit: "ms",
		note: "server latency histogram p50: the upper edge of its log2 bucket, so it moves only in steps of 2x"})
	rep.add(metric{name: "advisor.compute_mean_ms", value: computeMean, unit: "ms", note: "exact server latency mean (histogram sum / count)"})
	rep.add(metric{name: "advisor.queue_ms", value: clientMean - computeMean, unit: "ms",
		note: fmt.Sprintf("client mean %.1f ms minus server mean %.1f ms over %d computed requests", clientMean, computeMean, len(clientLat))})
	rep.add(metric{name: "advisor.hits", value: counts["advisor.cache_hits"], unit: "count",
		note: "informational: the repeater asks only while a computation runs, so slower computations give more hits"})
	rep.add(metric{name: "advisor.dedups", value: counts["advisor.dedup"], unit: "count"})
	rep.add(metric{name: "advisor.sheds", value: counts["advisor.shed"], unit: "count"})
	rep.add(metric{name: "advisor.errors", value: counts["advisor.errors"], unit: "count"})
}

// histP50 is the upper edge of the log2 bucket holding a histogram
// snapshot's median, as telemetry.Histogram.Quantile reports it.
func histP50(m telemetry.Metric) float64 {
	if m.Count == 0 {
		return 0
	}
	rank := (m.Count - 1) / 2
	var seen uint64
	for _, b := range m.Buckets {
		if seen += b.Count; seen > rank {
			return float64(b.Hi)
		}
	}
	return 0
}
