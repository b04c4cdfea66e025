package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"onchip/internal/area"
	"onchip/internal/experiments"
)

// Paper reference values the simulated CPIs are scored against: the
// best Table 6 allocation (CPI 1.333) and the Table 4 suite averages
// under Ultrix (1.94) and Mach (2.12).
const (
	paperTable6BestCPI = 1.333
	paperUltrixAvgCPI  = 1.94
	paperMachAvgCPI    = 2.12
)

// setupRounds is how many times a run sets up; setup_s is their median,
// so one slow round (page faults, a co-tenant burst) does not move it.
const setupRounds = 3

// suiteWorkload is a closed loop with one client whose op is one
// experiments.Run of a paper experiment at its default scale. The
// experiment's workload seeds are fixed in workload.All(), so the
// benchmark seed does not change its inputs.
type suiteWorkload struct {
	experiment string
	// check validates an op's result beyond byte-identity with the
	// warm-up op.
	check func(experiments.Result) error
	// cpiErr scores the result's headline CPI against the paper, in
	// percent.
	cpiErr func(experiments.Result) (float64, error)
}

var suites = map[string]suiteWorkload{
	"table6":      {experiment: "table6", check: checkTable6, cpiErr: table6CPIErr},
	"stall-suite": {experiment: "table4", check: checkTable4, cpiErr: table4CPIErr},
}

// rendered is everything a user of the experiment sees.
func rendered(res experiments.Result) string {
	return res.Title + "\n" + res.Text + "\n" + strings.Join(res.Notes, "\n")
}

// runOp runs one op and checks it against the reference rendering
// (empty for the first op, which becomes the reference).
func (w suiteWorkload) runOp(ref string) (experiments.Result, time.Duration, error) {
	start := time.Now()
	res, err := experiments.Run(w.experiment, experiments.Options{})
	d := time.Since(start)
	if err != nil {
		return res, d, err
	}
	if err := w.check(res); err != nil {
		return res, d, err
	}
	if ref != "" && rendered(res) != ref {
		return res, d, fmt.Errorf("%s output differs from the warm-up op's", w.experiment)
	}
	return res, d, nil
}

// timed runs the workload: setupRounds untimed warm-up ops (the first is
// the determinism reference), then back-to-back ops for the given time.
func (w suiteWorkload) timed(seconds float64) (*report, error) {
	rep := &report{}
	var setup sample
	var ref string
	var refRes experiments.Result
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		res, d, err := w.runOp(ref)
		if err != nil {
			return nil, fmt.Errorf("setup round %d: %w", i+1, err)
		}
		if i == 0 {
			ref, refRes = rendered(res), res
		}
		setup = append(setup, d.Seconds())
	}
	cpiErr, err := w.cpiErr(refRes)
	if err != nil {
		return nil, err
	}

	var lat, allocMB sample
	var ms runtime.MemStats
	budget := time.Duration(seconds * float64(time.Second))
	for start := time.Now(); time.Since(start) < budget || rep.tally.attempted == 0; {
		// Each op starts from a collected heap, as a fresh memalloc
		// process would; the collection is outside the timed region.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, d, err := w.runOp(ref)
		runtime.ReadMemStats(&ms)
		rep.tally.record(err)
		if err != nil {
			rep.notef("op %d failed: %v", rep.tally.attempted, err)
			continue
		}
		lat = append(lat, float64(d)/float64(time.Millisecond))
		allocMB = append(allocMB, float64(ms.TotalAlloc-before)/(1<<20))
	}

	rep.add(metric{name: "setup_s", value: setup.median(), unit: "s", spread: setup,
		note: "host; median of the set-up rounds, each one untimed warm-up op"})
	rep.closedLoop(lat, allocMB)
	rep.add(metric{name: "cpi_err_pct", value: cpiErr, unit: "%", note: "simulated; error against the paper"})
	return rep, nil
}

// table6Rows returns the whitespace-split fields of the rendered
// Table 6 rows (lines that start with a rank).
func table6Rows(res experiments.Result) [][]string {
	var rows [][]string
	for _, line := range strings.Split(res.Text, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0][0] >= '0' && f[0][0] <= '9' {
			rows = append(rows, f)
		}
	}
	return rows
}

// checkTable6 requires ten ranked rows, ranks 1..10 in order, CPI
// non-decreasing, and every allocation within the area budget.
func checkTable6(res experiments.Result) error {
	rows := table6Rows(res)
	if len(rows) < 10 {
		return fmt.Errorf("table6: %d ranked rows, want 10", len(rows))
	}
	prev := math.Inf(-1)
	for i, f := range rows[:10] {
		rank, err1 := strconv.Atoi(f[0])
		rbe, err2 := strconv.ParseFloat(f[len(f)-2], 64)
		cpi, err3 := strconv.ParseFloat(f[len(f)-1], 64)
		switch {
		case err1 != nil || err2 != nil || err3 != nil:
			return fmt.Errorf("table6: row %d unparsable: %q", i+1, strings.Join(f, " "))
		case rank != i+1:
			return fmt.Errorf("table6: row %d has rank %d", i+1, rank)
		case cpi < prev:
			return fmt.Errorf("table6: CPI falls from %.3f to %.3f at rank %d", prev, cpi, rank)
		case rbe > area.BudgetRBE:
			return fmt.Errorf("table6: rank %d uses %.0f rbe, over the %d budget", rank, rbe, area.BudgetRBE)
		}
		prev = cpi
	}
	return nil
}

// table6CPIErr is |rank-1 CPI - 1.333| / 1.333, in percent.
func table6CPIErr(res experiments.Result) (float64, error) {
	rows := table6Rows(res)
	if len(rows) == 0 {
		return 0, fmt.Errorf("table6: no ranked rows")
	}
	cpi, err := strconv.ParseFloat(rows[0][len(rows[0])-1], 64)
	if err != nil {
		return 0, fmt.Errorf("table6: rank-1 CPI: %w", err)
	}
	return 100 * math.Abs(cpi-paperTable6BestCPI) / paperTable6BestCPI, nil
}

// table4Rows returns the rendered Table 4 rows: workload (or
// "Average"), OS, CPI and the stall components.
func table4Rows(res experiments.Result) [][]string {
	var rows [][]string
	for _, line := range strings.Split(res.Text, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && (f[1] == "Ultrix" || f[1] == "Mach") {
			rows = append(rows, f)
		}
	}
	return rows
}

// table4Averages returns the suite-average CPI per OS.
func table4Averages(res experiments.Result) (map[string]float64, error) {
	avg := map[string]float64{}
	for _, f := range table4Rows(res) {
		if f[0] != "Average" {
			continue
		}
		cpi, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("table4: %s average CPI: %w", f[1], err)
		}
		avg[f[1]] = cpi
	}
	if len(avg) != 2 {
		return nil, fmt.Errorf("table4: found averages for %d operating systems, want Ultrix and Mach", len(avg))
	}
	return avg, nil
}

// checkTable4 requires twelve workload rows and both OS averages.
func checkTable4(res experiments.Result) error {
	if n := len(table4Rows(res)); n != 14 {
		return fmt.Errorf("table4: %d rows, want 12 workload rows and 2 averages", n)
	}
	_, err := table4Averages(res)
	return err
}

// table4CPIErr is the mean over Ultrix and Mach of |average CPI -
// paper| / paper, in percent.
func table4CPIErr(res experiments.Result) (float64, error) {
	avg, err := table4Averages(res)
	if err != nil {
		return 0, err
	}
	u := math.Abs(avg["Ultrix"]-paperUltrixAvgCPI) / paperUltrixAvgCPI
	m := math.Abs(avg["Mach"]-paperMachAvgCPI) / paperMachAvgCPI
	return 100 * (u + m) / 2, nil
}
