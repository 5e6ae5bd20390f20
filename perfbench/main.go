// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output the system produced
// against a reference, and prints the end-to-end metrics (or, traced, the
// per-module ledger) with the result as a JSON object on the last line of
// standard output. See README.md for the workloads, the metrics and the
// stage ledger.
//
//	go build -o perfbench . && ./perfbench --workload daemon-long --seed 1 --seconds 30 --trace 0
//
// Run it from the repository root: it reads testdata/seed_profiles.json
// and keeps its scratch files under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times each run sets its workload up; setup_s is
// the median.
const setupRuns = 3

// bench is one workload.
type bench interface {
	// setup generates the inputs and references into dir and starts any
	// server; it may be called again after close.
	setup(dir string, seed int64) error
	// unitSeconds is the nominal duration of one unit of work (an
	// offline pass, a daemon round, a cluster cycle).
	unitSeconds() float64
	// measure runs units of work, recording client spans into rec when
	// it is non-nil.
	measure(units int, rec *tracer, res *e2e) error
	// ledger replays the workload's stages under rec.
	ledger(rec *tracer, led *ledger, res *e2e) error
	close()
}

func newBench(name string) (bench, error) {
	switch name {
	case "offline":
		return &offline{}, nil
	case "daemon-long":
		return newDaemonLong(), nil
	case "cluster-short":
		return newClusterShort(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (offline, daemon-long, cluster-short)", name)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var opts options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.workload, "workload", "", "offline, daemon-long or cluster-short")
	fs.Int64Var(&opts.seed, "seed", 42, "seed of the generated traces")
	fs.IntVar(&opts.seconds, "seconds", 30, "measurement time")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.trace = *traceFlag == 1
	if opts.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b, err := newBench(opts.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", opts.workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	code, err := execute(b, opts, work, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return code
}

// execute sets up, measures, checks and reports.
func execute(b bench, opts options, work string, stdout, stderr io.Writer) (int, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			b.close()
			os.RemoveAll(filepath.Join(work, fmt.Sprintf("setup%d", i-1)))
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 1, err
		}
		t := time.Now()
		if err := b.setup(dir, opts.seed); err != nil {
			b.close()
			return 1, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer b.close()

	fmt.Fprintf(stderr, "perfbench %s seed=%d seconds=%d trace=%d\nenv: %s\n",
		opts.workload, opts.seed, opts.seconds, btoi(opts.trace), strings.Join(envFields(opts), " "))
	// The work per run is fixed by --seconds and each unit's nominal
	// duration, not by the clock, so both sides of a comparison measure
	// the same work.
	units := max(1, int(math.Round(float64(opts.seconds)/b.unitSeconds())))
	res := &e2e{}
	var metrics map[string]metricValue
	if !opts.trace {
		if err := b.measure(units, nil, res); err != nil {
			return 1, err
		}
		metrics = endToEndMetrics(opts.workload, res, setups)
		printEndToEnd(stderr, opts.workload, res, setups, nil, nil)
	} else {
		// Untraced and traced halves side by side, then the replays.
		untraced, traced := &e2e{}, &e2e{}
		if err := b.measure(max(1, units/2), nil, untraced); err != nil {
			return 1, err
		}
		rec := newTracer()
		if err := b.measure(max(1, units/2), rec, traced); err != nil {
			return 1, err
		}
		lrec := newTracer()
		led := &ledger{}
		if err := b.ledger(lrec, led, traced); err != nil {
			return 1, fmt.Errorf("ledger: %w", err)
		}
		led.spans = lrec.snapshot()
		layers := layerMetrics(opts.workload, led, untraced, traced)
		printEndToEnd(stderr, opts.workload, untraced, setups, traced, layers)
		printStages(stderr, led)
		printReconciliation(stderr, opts.workload, led, untraced)
		res.merge(untraced)
		res.merge(traced)
		metrics = make(map[string]metricValue)
		for _, d := range perLayer {
			metrics[d.Name] = metricValue{Value: layers[d.Name], Unit: d.Unit}
		}
		build := filepath.Dir(work)
		for name, t := range map[string]*tracer{"client": rec, "replay": lrec} {
			p := filepath.Join(build, fmt.Sprintf("spans-%s-%s.jsonl", opts.workload, name))
			if err := t.writeJSONL(p); err != nil {
				fmt.Fprintln(stderr, "perfbench: write spans:", err)
			}
		}
	}
	for _, m := range res.mismatches {
		fmt.Fprintln(stderr, "FAIL", m)
	}
	// A retried attempt counts as failed but its output may still be
	// right; correctness is the output checks (and Push errors).
	correct := len(res.mismatches) == 0
	fmt.Fprintf(stderr, "failed_ratio %d/%d  output checks %d  correct %v\n", res.failed, res.attempted, res.checks, correct)
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(out))
	if !correct {
		return 1, nil
	}
	return 0, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// reportS is report_s: the median per pass of the offline tools'
// profile serialization, the cluster merge, or for daemon-long the mean
// over sessions of the time from the last Ack to the Bye — the last
// frames applied and the final profiles written. (Done to Bye would also
// count a variable number of checkpoints still queued behind the send
// window.) The unit mixes two traces, so the mean is the stable summary.
func reportS(workload string, r *e2e) (float64, int) {
	if workload == "daemon-long" {
		return mean(r.byeS), len(r.byeS)
	}
	return median(r.reportS), len(r.reportS)
}

func endToEndMetrics(workload string, r *e2e, setups []float64) map[string]metricValue {
	rep, _ := reportS(workload, r)
	v := map[string]float64{
		"events_per_s": median(r.unitRate),
		"ack_p50_ms":   r.ackP50(),
		"ack_p90_ms":   r.ackTail(),
		"report_s":     rep,
		"peak_rss_mb":  peakRSSMB(),
		"setup_s":      median(setups),
	}
	out := make(map[string]metricValue)
	for _, d := range endToEnd {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// printEndToEnd writes the end-to-end table with sample counts; with a
// traced measurement beside it, both columns and the per-layer metrics.
func printEndToEnd(w io.Writer, workload string, r *e2e, setups []float64, traced *e2e, layers map[string]float64) {
	row := func(name, unit string, n int, f func(*e2e) float64, note string) {
		line := fmt.Sprintf("  %-16s %14.4f %-6s n=%-5d", name, f(r), unit, n)
		if traced != nil {
			line += fmt.Sprintf(" traced %14.4f", f(traced))
		}
		fmt.Fprintln(w, line+"  "+note)
	}
	n := count(r.ackMS)
	k := tailRank(n)
	fmt.Fprintln(w, "end-to-end (untraced):")
	row("events_per_s", "1/s", len(r.unitRate), func(x *e2e) float64 { return median(x.unitRate) }, "median over units")
	row("ack_p50_ms", "ms", n, (*e2e).ackP50, "nearest rank")
	row("ack_p90_ms", "ms", n, (*e2e).ackTail,
		fmt.Sprintf("rank %d of %d (p%.0f, >=10 beyond when n>=20)", k, n, 100*float64(k)/float64(max(n, 1))))
	_, nrep := reportS(workload, r)
	row("report_s", "s", nrep, func(x *e2e) float64 { v, _ := reportS(workload, x); return v }, "")
	row("peak_rss_mb", "MB", 1, func(*e2e) float64 { return peakRSSMB() }, "process peak")
	row("setup_s", "s", len(setups), func(*e2e) float64 { return median(setups) }, "median of set-ups")
	ratio := func(x *e2e) float64 { return float64(x.failed) / float64(max(x.attempted, 1)) }
	row("failed_ratio", "1", r.attempted, ratio, "failed/attempted (also the result's attempted/failed)")
	if layers == nil {
		return
	}
	fmt.Fprintln(w, "per-layer:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, layers[d.Name], d.Unit)
	}
}
