// Command whomp collects WHOMP (object-relative multi-dimensional Sequitur)
// profiles for the benchmark workloads and compares them against the
// conventional raw-address Sequitur grammar, reproducing the paper's
// Figure 5.
//
// Usage:
//
//	whomp [-workload NAME] [-scale N] [-seed N] [-workers N] [-o profile.whomp]
//	      [-record trace.ormtrace | -replay trace.ormtrace]
//
// With no -workload (and no -replay), all seven benchmarks run and the
// Figure 5 table is printed. -record writes the probe trace alongside the
// live profile; -replay profiles a recorded trace instead of running a
// workload and produces a byte-identical profile.
package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/experiments"
	"ormprof/internal/govern"
	"ormprof/internal/report"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "run a single workload (default: all seven)")
		scale    = flag.Int("scale", 1, "workload scale factor")
		seed     = flag.Int64("seed", 42, "workload random seed")
		out      = flag.String("o", "", "write the WHOMP profile of the (single) workload to this file")
		traceIn  = flag.String("trace", "", "deprecated alias for -replay")
		csvOut   = flag.Bool("csv", false, "emit the Figure 5 table as CSV (for plotting)")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine)
	tf := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*workload, workloads.Config{Scale: *scale, Seed: *seed}, *out, *traceIn, *csvOut, *workers, tf); err != nil {
		cliutil.Fatal("whomp", err)
	}
}

func run(workload string, cfg workloads.Config, out, traceIn string, csvOut bool, workers int, tf *cliutil.TraceFlags) error {
	if err := cliutil.CheckWorkers(workers); err != nil {
		return err
	}
	if traceIn != "" && tf.Replay == "" {
		tf.Replay = traceIn
	}
	if workload != "" || tf.Active() {
		return runOne(workload, cfg, out, workers, tf)
	}

	rows := experiments.Fig5(cfg)
	tbl := report.NewTable("Benchmark", "Accesses", "RASG syms", "OMSG syms", "RASG bytes", "OMSG bytes", "flate bytes", "Gain", "RASG time", "OMSG time")
	for _, r := range rows {
		tbl.AddRowf(r.Benchmark, r.Accesses, r.RASGSymbols, r.OMSGSymbols, r.RASGBytes, r.OMSGBytes,
			r.FlateBytes, report.Pct(r.GainPct), r.RASGTime.Round(1e6), r.OMSGTime.Round(1e6))
	}
	if csvOut {
		return tbl.WriteCSV(os.Stdout)
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout

	fmt.Println()
	labels := make([]string, len(rows))
	gains := make([]float64, len(rows))
	for i, r := range rows {
		labels[i] = r.Benchmark
		gains[i] = r.GainPct / 100
	}
	report.BarChart(os.Stdout, labels, gains, 40)
	fmt.Printf("\nFigure 5: OMSG is on average %.1f%% more compact than RASG (paper: 22%%)\n",
		experiments.AverageGain(rows))
	return nil
}

// runOne profiles a single event stream — a live workload run or a
// replayed trace ("collect once, profile many") — and, because the trace
// header carries the workload name and site table, both paths produce
// byte-identical profiles. Salvaged passes (-lenient, -deadline) still
// print the partial profile; the remembered error makes the tool exit 2.
func runOne(workload string, cfg workloads.Config, out string, workers int, tf *cliutil.TraceFlags) error {
	ev, err := tf.Load(workload, cfg)
	if err != nil {
		return err
	}
	if ev.Governed() {
		// Governed runs are sequential: degradation trip points are then a
		// pure function of (stream, budget, seed), so output is identical
		// for every -workers setting.
		return runOneGoverned(ev, out, uint64(cfg.Seed))
	}
	var deg cliutil.Degraded

	profile, err := cliutil.Analyze(ev, &deg, whomp.NewParallel(ev.Sites, workers))
	if err != nil {
		return err
	}

	rasg := whomp.NewRASG()
	_, perr := ev.Pass(rasg)
	if err := deg.Check(perr); err != nil {
		return err
	}

	fmt.Printf("workload %s: %d accesses, %d objects in %d groups\n",
		ev.Name, profile.Records, profile.Objects.NumObjects(), len(profile.Objects.Groups))
	fmt.Printf("  RASG: %8d symbols  %8d bytes\n", rasg.Symbols(), rasg.EncodedBytes())
	fmt.Printf("  OMSG: %8d symbols  %8d bytes  (%.1f%% smaller)\n",
		profile.Symbols(), profile.EncodedBytes(), whomp.CompressionGain(profile, rasg))

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := profile.WriteTo(f)
		if err != nil {
			return err
		}
		fmt.Printf("  wrote %d-byte profile (grammars + object table) to %s\n", n, out)
	}
	return deg.Err()
}

// runOneGoverned is runOne under a memory budget: both passes run behind
// degradation ladders sharing the invocation budget. Whatever survives
// still renders — a sampled profile, or just the governance report — and
// a degraded run exits 2 via the ladder's typed error.
func runOneGoverned(ev *cliutil.Events, out string, seed uint64) error {
	var deg cliutil.Degraded
	wlad, _, perr := ev.GovernedPass(seed, func() govern.Mode { return whomp.New(ev.Sites) })
	if err := deg.Check(perr); err != nil {
		return err
	}
	rlad, _, perr := ev.GovernedPass(seed, func() govern.Mode { return whomp.NewRASG() })
	if err := deg.Check(perr); err != nil {
		return err
	}

	if wp, ok := wlad.FullMode().(*whomp.Profiler); ok {
		profile := wp.Profile(ev.Name)
		fmt.Printf("workload %s: %d accesses, %d objects in %d groups\n",
			ev.Name, profile.Records, profile.Objects.NumObjects(), len(profile.Objects.Groups))
		if rasg, ok := rlad.FullMode().(*whomp.RASG); ok {
			fmt.Printf("  RASG: %8d symbols  %8d bytes\n", rasg.Symbols(), rasg.EncodedBytes())
			fmt.Printf("  OMSG: %8d symbols  %8d bytes  (%.1f%% smaller)\n",
				profile.Symbols(), profile.EncodedBytes(), whomp.CompressionGain(profile, rasg))
		} else {
			fmt.Printf("  OMSG: %8d symbols  %8d bytes  (RASG degraded to %s; no comparison)\n",
				profile.Symbols(), profile.EncodedBytes(), rlad.Rung())
		}
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			n, err := profile.WriteTo(f)
			if err != nil {
				return err
			}
			fmt.Printf("  wrote %d-byte profile (grammars + object table) to %s\n", n, out)
		}
	} else {
		fmt.Printf("workload %s: full profile unavailable (degraded to %s)\n", ev.Name, wlad.Rung())
	}
	if err := cliutil.WriteGovernance(os.Stdout, wlad, rlad); err != nil {
		return err
	}
	if err := deg.Check(wlad.Err()); err != nil {
		return err
	}
	if err := deg.Check(rlad.Err()); err != nil {
		return err
	}
	return deg.Err()
}
