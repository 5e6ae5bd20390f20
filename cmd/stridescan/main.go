// Command stridescan runs the paper's memory stride experiment (§4.2.2): it
// identifies strongly strided instructions from the LEAP profile and scores
// them against a lossless stride profiler, reproducing Figure 9.
//
// Usage:
//
//	stridescan [-scale N] [-seed N] [-max-lmads N] [-workers N] [-v]
//	           [-workload NAME] [-record trace.ormtrace | -replay trace.ormtrace]
//
// With no -workload (and no -replay) all seven benchmarks run and the
// Figure 9 table is printed. A single workload — live or replayed from a
// recorded trace — prints that benchmark's strided instructions and score.
package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/experiments"
	"ormprof/internal/govern"
	"ormprof/internal/leap"
	"ormprof/internal/report"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "scan a single workload (default: all seven)")
		scale    = flag.Int("scale", 1, "workload scale factor")
		seed     = flag.Int64("seed", 42, "workload random seed")
		maxLMADs = flag.Int("max-lmads", 0, "LEAP LMAD budget (0 = paper default of 30)")
		verbose  = flag.Bool("v", false, "list the strongly strided instructions per benchmark")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine)
	tf := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*workload, workloads.Config{Scale: *scale, Seed: *seed}, *maxLMADs, *verbose, *workers, tf); err != nil {
		cliutil.Fatal("stridescan", err)
	}
}

func run(workload string, cfg workloads.Config, maxLMADs int, verbose bool, workers int, tf *cliutil.TraceFlags) error {
	if err := cliutil.CheckWorkers(workers); err != nil {
		return err
	}
	if workload != "" || tf.Active() {
		ev, err := tf.Load(workload, cfg)
		if err != nil {
			return err
		}
		return scanOne(ev, maxLMADs, workers, uint64(cfg.Seed))
	}

	rows := experiments.Fig9(cfg, maxLMADs)
	tbl := report.NewTable("Benchmark", "Strongly strided (real)", "Identified by LEAP", "Score", "Cross-object ext")
	for _, r := range rows {
		tbl.AddRowf(r.Benchmark, r.Real, r.Found, report.Pct(r.Score), report.Pct(r.ExtScore))
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout

	fmt.Println()
	labels := make([]string, len(rows))
	scores := make([]float64, len(rows))
	for i, r := range rows {
		labels[i] = r.Benchmark
		scores[i] = r.Score / 100
	}
	report.BarChart(os.Stdout, labels, scores, 40)
	fmt.Printf("\nFigure 9: average stride score %.1f%% (paper: 88%%)\n", experiments.AverageScore(rows))

	if verbose {
		for _, name := range workloads.Names() {
			ev, err := (&cliutil.TraceFlags{}).Load(name, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("\n%s:\n", name)
			if err := scanOne(ev, maxLMADs, workers, uint64(cfg.Seed)); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanOne scores LEAP's stride identification for one event stream against
// the lossless reference profiler — two streaming passes. Salvaged passes
// still print the comparison; the remembered error makes the tool exit 2.
func scanOne(ev *cliutil.Events, maxLMADs, workers int, seed uint64) error {
	if ev.Governed() {
		return scanOneGoverned(ev, maxLMADs, seed)
	}
	var deg cliutil.Degraded
	ideal := stride.NewIdeal()
	_, perr := ev.Pass(ideal)
	if err := deg.Check(perr); err != nil {
		return err
	}
	lprof, err := cliutil.Analyze(ev, &deg, leap.NewParallel(ev.Sites, maxLMADs, workers))
	if err != nil {
		return err
	}
	est := stride.FromLEAP(lprof)
	strong := ideal.StronglyStrided()
	real := stride.SortedIDs(strong)

	printScan(ev, strong, real, est)
	return deg.Err()
}

// scanOneGoverned runs both passes behind degradation ladders. The
// reference pass is special: its own stride-only rung IS the reference
// profiler, so the comparison survives two step-downs of that ladder.
func scanOneGoverned(ev *cliutil.Events, maxLMADs int, seed uint64) error {
	var deg cliutil.Degraded
	ilad, _, perr := ev.GovernedPass(seed, func() govern.Mode { return stride.NewIdeal() })
	if err := deg.Check(perr); err != nil {
		return err
	}
	llad, _, perr := ev.GovernedPass(seed, func() govern.Mode { return leap.New(ev.Sites, maxLMADs) })
	if err := deg.Check(perr); err != nil {
		return err
	}

	ideal, _ := ilad.FullMode().(*stride.Ideal)
	if ideal == nil {
		ideal = ilad.StrideProfiler()
	}
	var est map[trace.InstrID]stride.Info
	if lp, ok := llad.FullMode().(*leap.Profiler); ok {
		est = stride.FromLEAP(lp.Profile(ev.Name))
	}
	switch {
	case ideal == nil:
		fmt.Printf("workload %s: stride reference unavailable (degraded to %s)\n", ev.Name, ilad.Rung())
	case est == nil:
		fmt.Printf("workload %s: LEAP estimate unavailable (degraded to %s); reference only\n", ev.Name, llad.Rung())
		fallthrough
	default:
		strong := ideal.StronglyStrided()
		printScan(ev, strong, stride.SortedIDs(strong), est)
	}
	if err := cliutil.WriteGovernance(os.Stdout, ilad, llad); err != nil {
		return err
	}
	if err := deg.Check(ilad.Err()); err != nil {
		return err
	}
	if err := deg.Check(llad.Err()); err != nil {
		return err
	}
	return deg.Err()
}

// printScan renders the per-instruction comparison table and summary. A
// nil est (governed run degraded below stride capture) marks every real
// strided instruction MISS, which is exactly what the profile would say.
func printScan(ev *cliutil.Events, strong map[trace.InstrID]stride.Info, real []trace.InstrID, est map[trace.InstrID]stride.Info) {
	found := 0
	for _, id := range real {
		ri := strong[id]
		mark := "MISS"
		if ei, ok := est[id]; ok && ei.Stride == ri.Stride {
			mark = "ok"
			found++
		}
		fmt.Printf("  i%-4d stride %-6d (%.0f%% of accesses)  [%s]\n", id, ri.Stride, 100*ri.Frac, mark)
	}
	if len(real) > 0 {
		fmt.Printf("workload %s: %d/%d strongly strided instructions identified (%.0f%%)\n",
			ev.Name, found, len(real), 100*float64(found)/float64(len(real)))
	} else {
		fmt.Printf("workload %s: no strongly strided instructions\n", ev.Name)
	}
}
