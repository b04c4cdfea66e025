// Package experiments reproduces every table and figure of the paper's
// evaluation: each experiment is a named harness that runs the required
// models and simulations and renders the same rows or series the paper
// reports. See DESIGN.md section 4 for the experiment index and
// EXPERIMENTS.md for paper-versus-measured results.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"onchip/internal/spans"
	"onchip/internal/telemetry"
	"onchip/internal/tracecache"
)

// Options controls experiment scale and observability.
type Options struct {
	// Refs is the number of references to simulate per workload/OS
	// run. Zero selects the experiment's default (a few million).
	Refs int
	// Metrics, when non-nil, receives run metrics from instrumented
	// experiments: machine stall counters and component stats from
	// monitor-based runs, sweep and enumeration counters from the
	// design-space searches. Nil (the default) keeps every experiment
	// byte-identical to the uninstrumented output.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, captures the machine stall-event window of
	// experiments that run a timing machine (the Monster capture
	// window).
	Tracer *telemetry.Tracer
	// Spans, when non-nil, records hierarchical execution spans across
	// the pipeline: per-workload generation phases, per-worker group-pool
	// jobs, and search enumeration. Nil (the default) records nothing
	// and keeps the hot paths untouched.
	Spans *spans.Tracer
	// Progress, when non-nil, receives live progress lines (one per
	// write, newline-terminated): timing-machine measurements and
	// workload sweeps as they finish.
	Progress io.Writer
	// Context, when non-nil, makes long-running experiments
	// cancellable: sweep workers stop at the next stage boundary, the
	// enumeration loop stops between pricing steps, and Run returns the
	// context's error. Nil means run to completion.
	Context context.Context
	// TraceCache, when non-nil, short-circuits workload reference
	// generation in the sweeps that price TLBs (table6, table7,
	// ext-atime, fig7, fig8 and the advisor's): a warm run replays the
	// compressed on-disk stream (byte-identical to a live generation, so
	// the tables do not change), a cold run records it. Corrupt entries
	// fall back to regeneration.
	TraceCache *tracecache.Cache
	// SpacePreset selects the design space the allocation experiments
	// search: "table5" (or empty, the default) is the paper's grid,
	// enumerated exhaustively; "big" is the >=1M-triple production
	// space (search.Big()), searched with the pruned strategy. The
	// simulators still sweep only the Table 5 grid -- off-grid
	// configurations are priced by the missmodel power-law extension of
	// the measured model.
	SpacePreset string
}

// ctx returns the experiment context, never nil.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) refs(def int) int {
	if o.Refs > 0 {
		return o.Refs
	}
	return def
}

// Validate reports options no experiment runs with: a negative Refs
// or an unknown SpacePreset. Run checks it before every experiment.
func (o Options) Validate() error {
	if o.Refs < 0 {
		return fmt.Errorf("negative reference count %d (0 selects each experiment's default)", o.Refs)
	}
	_, err := o.bigSpace()
	return err
}

// bigSpace resolves the SpacePreset field.
func (o Options) bigSpace() (bool, error) {
	switch o.SpacePreset {
	case "", "table5":
		return false, nil
	case "big":
		return true, nil
	}
	return false, fmt.Errorf("unknown space preset %q (want table5 or big)", o.SpacePreset)
}

// progressf emits one progress line when a Progress sink is installed.
func (o Options) progressf(format string, args ...any) {
	if o.Progress == nil {
		return
	}
	fmt.Fprintf(o.Progress, format+"\n", args...)
}

// Result is a rendered experiment.
type Result struct {
	ID    string
	Title string
	// Text is the rendered tables/charts.
	Text string
	// Notes record observations, including paper-vs-measured remarks.
	Notes []string
}

// runner produces a result for the given options.
type runner struct {
	title string
	run   func(Options) (Result, error)
}

var registry = map[string]runner{}

func register(id, title string, run func(Options) (Result, error)) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = runner{title: title, run: run}
}

// IDs returns the registered experiment identifiers, sorted.
func IDs() []string {
	var ids []string
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the experiment's one-line description.
func Title(id string) string {
	if r, ok := registry[id]; ok {
		return r.title
	}
	return ""
}

// Run executes the experiment with the given options.
func Run(id string, opt Options) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	if err := opt.Validate(); err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	if err := opt.ctx().Err(); err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res, err := r.run(opt)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = r.title
	return res, nil
}
