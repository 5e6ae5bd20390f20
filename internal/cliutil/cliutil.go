// Package cliutil factors the flag handling and event-stream plumbing
// shared by every cmd tool: the -workers flag with its validation, and the
// -record / -replay pair that connects the tools to the on-disk trace
// layer (internal/tracefmt).
//
// The central type is Events: a replayable event source that is either a
// live workload run (optionally teeing its probe stream to a trace file)
// or a recorded trace. Each Pass streams the whole event stream into a
// sink; replay passes read the file with O(batch) memory, so profiling a
// recorded trace never materializes it. Analysis passes go through Run
// (or Analyze), the one place that chooses between a parallel pipeline
// and a sequential one behind a degradation ladder, and a tool ends with
// Finish, which renders the governance reports and yields the exit error.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ormprof/internal/govern"
	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/serve"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/workloads"
)

// workersValue is a self-validating flag.Value for -workers: rejecting a
// bad value in Set means every tool gets the FlagSet's own error handling
// — message plus usage on stderr, exit code 2 — instead of each main
// hand-rolling (and subtly diverging on) the failure path.
type workersValue int

func (v *workersValue) String() string { return strconv.Itoa(int(*v)) }

func (v *workersValue) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("must be an integer (got %q)", s)
	}
	if n < 1 {
		return fmt.Errorf("must be at least 1 (got %d)", n)
	}
	*v = workersValue(n)
	return nil
}

// WorkersFlag registers the shared -workers flag on fs. The default is
// runtime.GOMAXPROCS(0); values below 1 are rejected at parse time (usage
// on stderr, exit 2 under flag.ExitOnError).
func WorkersFlag(fs *flag.FlagSet) *int {
	v := workersValue(runtime.GOMAXPROCS(0))
	fs.Var(&v, "workers",
		"worker goroutines for profile construction (>= 1; profiles are identical for any count)")
	return (*int)(&v)
}

// listValue is a self-validating flag.Value for comma-separated lists
// (shard addresses, merge directories): elements must be non-empty and
// unique, and a violation is rejected at parse time so the tool fails
// with usage text and exit 2 before anything runs — a duplicate shard
// address would silently skew the hash ring, and catching it in Set is
// the same no-per-main-code discipline as workersValue.
type listValue []string

func (v *listValue) String() string { return strings.Join(*v, ",") }

func (v *listValue) Set(s string) error {
	parts := strings.Split(s, ",")
	seen := make(map[string]bool, len(parts))
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return fmt.Errorf("empty element in list %q", s)
		}
		if seen[p] {
			return fmt.Errorf("duplicate element %q", p)
		}
		seen[p] = true
		out = append(out, p)
	}
	*v = out
	return nil
}

// ListFlag registers a comma-separated list flag on fs. Empty and
// duplicate elements are rejected at parse time (usage on stderr, exit 2
// under flag.ExitOnError). An unset flag yields a nil slice.
func ListFlag(fs *flag.FlagSet, name, usage string) *[]string {
	v := listValue(nil)
	fs.Var(&v, name, usage)
	return (*[]string)(&v)
}

// countValue is a self-validating flag.Value for small positive counts
// (shard counts and the like): integers below min are rejected in Set.
type countValue struct {
	p   *int
	min int
}

func (v countValue) String() string {
	if v.p == nil {
		return "0"
	}
	return strconv.Itoa(*v.p)
}

func (v countValue) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("must be an integer (got %q)", s)
	}
	if n < v.min {
		return fmt.Errorf("must be at least %d (got %d)", v.min, n)
	}
	*v.p = n
	return nil
}

// CountFlag registers an integer flag that must be at least min when set.
// The default may sit below min (conventionally 0 = "not selected") —
// the bound applies to explicit values, where 0 would be a typo.
func CountFlag(fs *flag.FlagSet, name string, def, min int, usage string) *int {
	n := def
	fs.Var(countValue{p: &n, min: min}, name, usage)
	return &n
}

// TraceFlags holds the record/replay pair every tool exposes, plus the
// degraded-mode knobs (-lenient, -deadline).
type TraceFlags struct {
	// Record: while running a live workload, also stream its probe trace
	// to this file.
	Record string
	// Replay: read events from this trace file instead of running a
	// workload.
	Replay string
	// Lenient: tolerate damaged trace frames on replay, resynchronizing
	// past corruption and salvaging every frame that still decodes.
	Lenient bool
	// Deadline is a total time budget for the invocation's event-stream
	// work, shared by every pass; 0 means none. The clock starts at the
	// first pass, so a tool that makes three passes gets one budget, not
	// three.
	Deadline time.Duration
	// MemBudget is the invocation's memory budget in bytes, shared by
	// every governed pass; 0 means none. When a pass's accounted footprint
	// trips the budget, the pipeline steps down the degradation ladder
	// (internal/govern) and the tool exits 2 with partial output.
	MemBudget int64
	// Approx starts every governed pass directly at the sketch-stride
	// rung: fixed-memory count-min/bloom/top-K summaries with ε/δ error
	// bounds instead of exact profiles. Starting there is a request, not
	// degradation — the tool exits 0 unless a -mem-budget forces the
	// ladder further down.
	Approx bool
}

// RegisterTraceFlags adds -record, -replay, -lenient, -deadline, and
// -mem-budget to fs.
func RegisterTraceFlags(fs *flag.FlagSet) *TraceFlags {
	t := &TraceFlags{}
	fs.StringVar(&t.Record, "record", "",
		"also record the probe trace of the live workload run to this file")
	fs.StringVar(&t.Replay, "replay", "",
		"profile a recorded trace file instead of running a workload")
	fs.BoolVar(&t.Lenient, "lenient", false,
		"tolerate corrupt frames in the -replay trace: skip damage, salvage the rest (exit code 2 if events were lost)")
	fs.DurationVar(&t.Deadline, "deadline", 0,
		"total time budget (e.g. 30s) shared by all passes over the event stream; an overrunning pass stops and reports the partial result (exit code 2)")
	fs.Var(sizeFlag{&t.MemBudget}, "mem-budget",
		"memory budget (e.g. 64M) shared by all profiling passes; over budget the pipeline degrades (full -> object-sampled -> sketch-stride -> sketch-counters -> stride-only -> counters) and the tool exits 2 with partial output (0 = unlimited)")
	fs.BoolVar(&t.Approx, "approx", false,
		"profile with fixed-memory sketches (count-min stride histograms, seen-digram bloom filter, top-K heavy hitters) carrying epsilon/delta error bounds, instead of exact profiles")
	return t
}

// Active reports whether either trace flag was set.
func (t *TraceFlags) Active() bool { return t.Record != "" || t.Replay != "" }

// Events is a replayable probe-event stream: either an in-memory live run
// or a pointer to a recorded trace file. Passes over a live run replay the
// buffered events; passes over a recording stream from disk.
type Events struct {
	// Name labels the stream: the workload name, recovered from the trace
	// header on replay (falling back to the file name for traces recorded
	// without one).
	Name string
	// Sites is the static allocation-site name table.
	Sites map[trace.SiteID]string

	buf  *trace.Buffer // live mode
	path string        // replay mode

	lenient   bool
	deadline  time.Duration
	budget    time.Time        // absolute cutoff shared by all passes; set at the first pass
	stats     tracefmt.Stats   // reader stats from the most recent replay pass
	memBudget int64            // memory budget shared by all governed passes
	approx    bool             // start governed passes at the sketch-stride rung
	seed      uint64           // seeds the ladders' site sampling
	govBudget *govern.Budget   // parent budget, created by the first governed pass
	ladders   []*govern.Ladder // one per governed pass, in pass order; see Finish

	workload string           // live mode: the selected workload name
	wcfg     workloads.Config // live mode: its configuration
}

// Load resolves the trace flags into an event stream. With -replay it
// opens the trace file (validating the header) and any workload selection
// is ignored — the trace header names its workload. Otherwise it runs
// workload under cfg, teeing the probe stream to -record if set. Either
// way cfg.Seed also seeds the site sampling of every governed pass.
func (t *TraceFlags) Load(workload string, cfg workloads.Config) (*Events, error) {
	if t.Replay != "" {
		if t.Record != "" {
			return nil, fmt.Errorf("-record and -replay are mutually exclusive")
		}
		ev, err := openReplay(t.Replay)
		if err != nil {
			return nil, err
		}
		ev.lenient = t.Lenient
		ev.deadline = t.Deadline
		ev.memBudget = t.MemBudget
		ev.approx = t.Approx
		ev.seed = uint64(cfg.Seed)
		return ev, nil
	}
	if workload == "" {
		return nil, fmt.Errorf("no workload selected")
	}
	prog, err := workloads.New(workload, cfg)
	if err != nil {
		return nil, err
	}
	buf := &trace.Buffer{}
	sink := trace.Sink(buf)
	var tw *tracefmt.Writer
	var f *os.File
	if t.Record != "" {
		f, err = os.Create(t.Record)
		if err != nil {
			return nil, err
		}
		tw = tracefmt.NewWriter(f, tracefmt.WithName(workload))
		sink = trace.Tee(buf, tw)
	}
	m := memsim.Run(prog, sink)
	if tw != nil {
		if err := tw.Close(); err != nil {
			f.Close()
			return nil, fmt.Errorf("recording trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("recording trace: %w", err)
		}
	}
	return &Events{
		Name: workload, Sites: m.StaticSites(), buf: buf,
		deadline: t.Deadline, memBudget: t.MemBudget, approx: t.Approx,
		seed: uint64(cfg.Seed), workload: workload, wcfg: cfg,
	}, nil
}

// Rerun executes the live workload a second time into sink under the given
// machine options — the optimize pipeline's "after" measurement re-runs the
// same deterministic program under a plan-driven allocator. It is an error
// on a replayed event stream: a trace file has no program to re-execute
// (replay callers re-resolve the recorded tuples instead).
func (ev *Events) Rerun(sink trace.Sink, opts ...memsim.Option) error {
	if ev.path != "" {
		return fmt.Errorf("cannot re-run a replayed trace")
	}
	prog, err := workloads.New(ev.workload, ev.wcfg)
	if err != nil {
		return err
	}
	memsim.Run(prog, sink, opts...)
	return nil
}

// openReplay validates the header and captures the metadata; events are
// streamed per Pass.
func openReplay(path string) (*Events, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := tracefmt.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	name := r.Name()
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return &Events{Name: name, Sites: r.Sites(), path: path}, nil
}

// Pass streams one complete pass of the event stream into sink and reports
// the number of events delivered. Every pass, live or replayed, runs on
// trace.DrainContext, so a panic in the sink comes back as a
// *trace.PanicError. Replay passes hold O(batch) events in memory; live
// passes replay the run's buffer. When -deadline is set, all passes of
// the invocation share one time budget (the clock starts at the first
// pass), so -deadline bounds the tool's total event-stream work
// rather than multiplying by the pass count; with -lenient the replay
// reader resynchronizes past damaged frames and the pass returns the
// salvaged count alongside a *tracefmt.CorruptionError. Either way a
// non-nil error accompanied by n > 0 means partial results were
// delivered, not none.
func (ev *Events) Pass(sink trace.Sink) (int, error) {
	ctx := context.Background()
	if ev.deadline > 0 {
		if ev.budget.IsZero() {
			ev.budget = time.Now().Add(ev.deadline)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, ev.budget)
		defer cancel()
	}
	if ev.path == "" {
		return trace.DrainContext(ctx, ev.buf.Source(), sink)
	}
	f, err := os.Open(ev.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var opts []tracefmt.ReaderOption
	if ev.lenient {
		opts = append(opts, tracefmt.WithLenient())
	}
	r, err := tracefmt.NewReader(f, opts...)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", ev.path, err)
	}
	n, err := trace.DrainContext(ctx, r, sink)
	ev.stats = r.Stats()
	if err != nil {
		return n, fmt.Errorf("%s: %w", ev.path, err)
	}
	return n, nil
}

// Analysis is the shape every analysis pipeline shows a tool: a
// governable trace sink that finalizes into a profile, and then reports
// the first fault of its fan-out workers. whomp.Profiler and
// leap.Profiler satisfy it.
type Analysis[P any] interface {
	govern.Mode
	Profile(workload string) P
	Err() error
}

// Analyze is Run for an analysis: one pass into the pipeline build makes,
// then Profile, then Err. Faults from the drain and from the workers (a
// *profiler.WorkerError) both go through deg, so a salvaged run still
// returns its partial profile and the tool exits 2. A hard pass error
// comes back, with no profile, to abort the tool; Profile still runs
// first, so the workers are joined either way. Below the sampled rung
// there is no profile: Analyze returns the zero P and the rung.
func Analyze[P any, A Analysis[P]](ev *Events, deg *Degraded, workers int, build func(workers int) A) (P, govern.Rung, error) {
	var none P
	a, rung, err := Run(ev, deg, workers, build)
	if !rung.FullPipeline() {
		return none, rung, err
	}
	prof := a.Profile(ev.Name)
	if err != nil {
		return none, rung, err
	}
	return prof, rung, deg.Check(a.Err())
}

// Stats reports the trace reader's counters from the most recent replay
// pass — in lenient mode this is the damage report (skipped frames, skipped
// events, corruption incidents). Zero for live streams.
func (ev *Events) Stats() tracefmt.Stats { return ev.stats }

// translateMode is the pipeline behind Translate: OMC translation into a
// record collector.
type translateMode struct {
	*profiler.CDC
	col *profiler.Collector
}

func newTranslateMode(sites map[trace.SiteID]string) *translateMode {
	col := &profiler.Collector{}
	return &translateMode{CDC: profiler.NewCDC(omc.New(sites), col), col: col}
}

// Translate runs one pass through a fresh OMC, via Run, and returns the
// object-relative record stream plus the OMC. A salvaged pass (lenient
// corruption skip, deadline overrun) still returns the partial stream,
// its error remembered in deg. Records and OMC are nil after a hard error,
// or when a governed pass ended below the sampled rung, which rung names.
func (ev *Events) Translate(deg *Degraded) ([]profiler.Record, *omc.OMC, govern.Rung, error) {
	m, rung, err := Run(ev, deg, 1, func(int) *translateMode { return newTranslateMode(ev.Sites) })
	if err != nil || m == nil {
		return nil, nil, rung, err
	}
	m.Finish()
	return m.col.Records, m.OMC, rung, nil
}

// Replayed reports whether the events come from a recorded trace file.
func (ev *Events) Replayed() bool { return ev.path != "" }

// Salvaged reports whether err is a degraded-mode error: the pipeline lost
// part of the stream but contained the fault and salvaged the rest. These
// are exactly the typed errors of the fault-tolerant layer — trace
// corruption skipped by a lenient reader, a contained panic in the drain or
// a worker, a deadline/cancellation that cut the pass short, a memory
// budget that degraded the profiling mode, or a cluster merge that had to
// skip unusable final states. Anything else (unreadable file, bad flags,
// strict-mode decode failure) is a hard error.
func Salvaged(err error) bool {
	var ce *tracefmt.CorruptionError
	var pe *trace.PanicError
	var we *profiler.WorkerError
	var de *govern.DegradedError
	var pr *serve.PartialReportError
	return errors.As(err, &ce) || errors.As(err, &pe) || errors.As(err, &we) ||
		errors.As(err, &de) || errors.As(err, &pr) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// Degraded accumulates the first salvaged error across a tool's passes so
// partial results still print before the tool exits with code 2. The idiom:
//
//	var deg Degraded
//	prof, rung, err := Analyze(ev, &deg, workers, build)
//	if err != nil {
//		return err // hard failure, abort
//	}
//	... render (possibly partial) results ...
//	return ev.Finish(os.Stdout, &deg) // nil, or the first salvaged error
type Degraded struct{ err error }

// Check filters a pass error: hard errors come back to abort the tool;
// salvaged errors are remembered (first wins) and nil is returned so the
// tool keeps going with the partial data.
func (d *Degraded) Check(err error) error {
	if err == nil {
		return nil
	}
	if !Salvaged(err) {
		return err
	}
	if d.err == nil {
		d.err = err
	}
	return nil
}

// Err reports the remembered salvaged error, nil after a clean run.
func (d *Degraded) Err() error { return d.err }

// ExitCode maps an error to the tools' shared exit-code convention:
// 0 for a clean run, 2 for a salvaged run (partial results were produced
// but data was lost), 1 for a hard failure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case Salvaged(err):
		return 2
	default:
		return 1
	}
}

// Fatal prints err prefixed with the tool name and exits with the
// ExitCode convention. A nil err exits 0 silently.
func Fatal(tool string, err error) {
	if err == nil {
		os.Exit(0)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitCode(err))
}
