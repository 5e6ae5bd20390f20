package cliutil

import (
	"flag"
	"io"

	"ormprof/internal/govern"
)

// sizeFlag is a self-validating flag.Value for byte-size flags
// (-mem-budget): malformed or negative sizes are rejected in Set, so the
// FlagSet's own error handling prints the message plus usage and exits 2
// uniformly across all tools.
type sizeFlag struct{ n *int64 }

var _ flag.Value = sizeFlag{}

func (v sizeFlag) String() string {
	if v.n == nil {
		return "0"
	}
	return govern.FormatSize(*v.n)
}

func (v sizeFlag) Set(s string) error {
	n, err := govern.ParseSize(s)
	if err != nil {
		return err
	}
	*v.n = n
	return nil
}

// SizeFlag registers a self-validating byte-size flag on fs and returns
// its destination. Tools that do not use RegisterTraceFlags (tracecat's
// positional-file interface) still get the same -mem-budget syntax and
// the same parse-time validation.
func SizeFlag(fs *flag.FlagSet, name, usage string) *int64 {
	n := new(int64)
	fs.Var(sizeFlag{n}, name, usage)
	return n
}

// Run is the one way a tool streams a pass of the event stream into an
// analysis pipeline, and the one place that decides how the pass runs:
//
//   - ungoverned, the pipeline is build(workers), fanned out as wide as
//     -workers asks, and sees the stream directly;
//   - governed (-mem-budget or -approx), it is build(1), the sequential
//     pipeline, behind a degradation ladder on the invocation's shared
//     budget. Trip points are a pure function of (stream, budget, seed)
//     only on a sequential pipeline, so governed output is identical for
//     every -workers setting. All governed passes share one parent
//     budget, so a later pass's structures count against what earlier
//     passes still hold live. Finish writes each ladder's report.
//
// Run returns the live pipeline and the rung its pass ended on (RungFull
// when ungoverned). Below the sampled rung the pipeline's output is gone
// and Run returns the zero M — except that a *stride.Ideal pass ending on
// the stride-only rung gets that rung's own lossless stride profiler,
// which is the same analysis. The pass error goes through deg: a salvaged
// one is remembered, a hard one comes back, together with the pipeline so
// the caller can still join its workers.
func Run[M govern.Mode](ev *Events, deg *Degraded, workers int, build func(workers int) M) (M, govern.Rung, error) {
	m, rung, _, err := run(ev, deg, workers, build)
	return m, rung, err
}

// run is Run that also reports how many events the pass delivered.
func run[M govern.Mode](ev *Events, deg *Degraded, workers int, build func(workers int) M) (M, govern.Rung, int, error) {
	if ev.memBudget == 0 && !ev.approx {
		m := build(workers)
		n, err := ev.Pass(m)
		return m, govern.RungFull, n, deg.Check(err)
	}
	if ev.govBudget == nil {
		ev.govBudget = govern.NewBudget(ev.memBudget)
	}
	cfg := govern.Config{
		Budget: ev.govBudget.Sub(0),
		Seed:   ev.seed,
		Full:   func() govern.Mode { return build(1) },
	}
	if ev.approx {
		// -approx: skip the exact rungs entirely. The ladder starts on the
		// fixed-memory sketches and records no step-downs for doing so; a
		// -mem-budget can still push it further.
		cfg.StartRung = govern.RungSketchStride
	}
	lad := govern.NewLadder(cfg)
	ev.ladders = append(ev.ladders, lad)
	n, err := ev.Pass(lad)
	m, _ := lad.FullMode().(M)
	if s := lad.StrideProfiler(); s != nil {
		m, _ = any(s).(M)
	}
	return m, lad.Rung(), n, deg.Check(err)
}

// Finish ends a tool's run: it writes the governance report of every
// governed pass to w in pass order, folds each ladder's degradation into
// deg, and returns deg.Err() — nil, or the first salvaged error, pass
// errors before ladder degradations. Ungoverned runs write nothing here.
// Reports are deterministic, so governed output stays byte-comparable
// across worker counts and restarts.
func (ev *Events) Finish(w io.Writer, deg *Degraded) error {
	for _, lad := range ev.ladders {
		if err := lad.WriteReport(w); err != nil {
			return err
		}
	}
	for _, lad := range ev.ladders {
		deg.Check(lad.Err()) //nolint:errcheck // a DegradedError is always salvaged
	}
	return deg.Err()
}
