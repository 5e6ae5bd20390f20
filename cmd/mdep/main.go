// Command mdep runs the paper's memory dependence frequency experiment
// (§4.2.1): it compares the LEAP LMAD-based dependence post-processor and
// the Connors windowed profiler against a lossless raw-address baseline,
// reproducing Figures 6, 7, and 8.
//
// Usage:
//
//	mdep [-scale N] [-seed N] [-max-lmads N] [-window N]
//	     [-workload NAME] [-record trace.ormtrace | -replay trace.ormtrace]
//
// With no -workload (and no -replay) all seven benchmarks run. A single
// workload — live or replayed from a recorded trace — prints that
// benchmark's own error distributions.
package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/depend"
	"ormprof/internal/experiments"
	"ormprof/internal/leap"
	"ormprof/internal/report"
	"ormprof/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "analyze a single workload (default: all seven)")
		scale    = flag.Int("scale", 1, "workload scale factor")
		seed     = flag.Int64("seed", 42, "workload random seed")
		maxLMADs = flag.Int("max-lmads", 0, "LEAP LMAD budget (0 = paper default of 30)")
		window   = flag.Int("window", 0, "Connors store-history window (0 = default)")
		bench    = flag.String("benchmark", "", "also print this benchmark's own distributions")
	)
	tf := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*workload, workloads.Config{Scale: *scale, Seed: *seed}, *maxLMADs, *window, *bench, tf); err != nil {
		cliutil.Fatal("mdep", err)
	}
}

func binLabels() []string {
	labels := make([]string, depend.NumBins)
	for i := range labels {
		labels[i] = fmt.Sprintf("%+d%%", depend.BinError(i))
	}
	return labels
}

func run(workload string, cfg workloads.Config, maxLMADs, window int, bench string, tf *cliutil.TraceFlags) error {
	if workload != "" || tf.Active() {
		ev, err := tf.Load(workload, cfg)
		if err != nil {
			return err
		}
		return depOne(ev, maxLMADs, window)
	}

	rows := experiments.Dependence(experiments.DepConfig{
		Workloads: cfg,
		MaxLMADs:  maxLMADs,
		Window:    window,
	})

	tbl := report.NewTable("Benchmark", "Pairs", "LEAP ±10%", "LEAP exact", "Connors ±10%", "Connors exact")
	for _, r := range rows {
		tbl.AddRowf(r.Benchmark, r.LEAP.Pairs,
			report.Pct(100*r.LEAP.WithinTen()), report.Pct(100*r.LEAP.Exact()),
			report.Pct(100*r.Connors.WithinTen()), report.Pct(100*r.Connors.Exact()))
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout

	fig8 := experiments.Summarize(rows)
	labels := binLabels()

	fmt.Println("\nFigure 6 — LEAP error distribution (average over benchmarks):")
	report.BarChart(os.Stdout, labels, fig8.LEAP.Bins[:], 48)

	fmt.Println("\nFigure 7 — Connors error distribution (average over benchmarks):")
	report.BarChart(os.Stdout, labels, fig8.Connors.Bins[:], 48)

	fmt.Printf("\nFigure 8 — correct-or-within-10%%: LEAP %.1f%%, Connors %.1f%% (improvement %.0f%%)\n",
		100*fig8.LEAPWithin10, 100*fig8.ConnWithin10, fig8.ImprovementPct)
	fmt.Println("Paper: LEAP ~75% within 10%, 56% more pairs correct-or-within-10% than Connors.")

	if bench != "" {
		for _, r := range rows {
			if r.Benchmark != bench {
				continue
			}
			printDistributions(r.Benchmark, r.LEAP, r.Connors)
			return nil
		}
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	return nil
}

// depOne runs the dependence comparison on a single event stream — three
// streaming passes: the lossless baseline, the LEAP estimate, and Connors.
// Salvaged passes still print the comparison over the partial stream; the
// remembered error makes the tool exit 2.
func depOne(ev *cliutil.Events, maxLMADs, window int) error {
	var deg cliutil.Degraded
	// Only the LEAP estimate runs through the governed entry point: the
	// lossless baseline and the Connors profiler ARE the experiment's
	// ground truth, so degrading them would corrupt the comparison rather
	// than bound it.
	ideal := depend.NewIdeal()
	_, perr := ev.Pass(ideal)
	if err := deg.Check(perr); err != nil {
		return err
	}
	lprof, rung, err := cliutil.Analyze(ev, &deg, 1, func(int) *leap.Profiler { return leap.New(ev.Sites, maxLMADs) })
	if err != nil {
		return err
	}
	con := depend.NewConnors(window)
	_, perr = ev.Pass(con)
	if err := deg.Check(perr); err != nil {
		return err
	}
	if lprof == nil {
		fmt.Printf("workload %s: LEAP estimate unavailable (degraded to %s); Connors only\n",
			ev.Name, rung)
		printDistributions(ev.Name,
			depend.ErrorDist{},
			depend.Distribution(ideal.Result(), con.Result()))
	} else {
		printDistributions(ev.Name,
			depend.Distribution(ideal.Result(), depend.FromLEAP(lprof)),
			depend.Distribution(ideal.Result(), con.Result()))
	}
	return ev.Finish(os.Stdout, &deg)
}

func printDistributions(name string, leapDist, connDist depend.ErrorDist) {
	labels := binLabels()
	fmt.Printf("%s — LEAP error distribution (%d pairs):\n", name, leapDist.Pairs)
	report.BarChart(os.Stdout, labels, leapDist.Bins[:], 48)
	fmt.Printf("\n%s — Connors error distribution:\n", name)
	report.BarChart(os.Stdout, labels, connDist.Bins[:], 48)
	fmt.Printf("\ncorrect-or-within-10%%: LEAP %.1f%%, Connors %.1f%%\n",
		100*leapDist.WithinTen(), 100*connDist.WithinTen())
}
