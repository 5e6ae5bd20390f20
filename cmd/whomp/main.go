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
		csvOut   = flag.Bool("csv", false, "emit the Figure 5 table as CSV (for plotting)")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine)
	tf := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*workload, workloads.Config{Scale: *scale, Seed: *seed}, *out, *csvOut, *workers, tf); err != nil {
		cliutil.Fatal("whomp", err)
	}
}

func run(workload string, cfg workloads.Config, out string, csvOut bool, workers int, tf *cliutil.TraceFlags) error {
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
// byte-identical profiles. Salvaged passes (-lenient, -deadline,
// -mem-budget) still print the partial profile — a sampled one, or just
// the governance report — and the remembered error makes the tool exit 2.
func runOne(workload string, cfg workloads.Config, out string, workers int, tf *cliutil.TraceFlags) error {
	ev, err := tf.Load(workload, cfg)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	profile, wrung, err := cliutil.Analyze(ev, &deg, workers, func(w int) *whomp.Profiler { return whomp.NewParallel(ev.Sites, w) })
	if err != nil {
		return err
	}
	rasg, rrung, err := cliutil.Run(ev, &deg, workers, func(int) *whomp.RASG { return whomp.NewRASG() })
	if err != nil {
		return err
	}

	if profile == nil {
		fmt.Printf("workload %s: full profile unavailable (degraded to %s)\n", ev.Name, wrung)
		return ev.Finish(os.Stdout, &deg)
	}
	fmt.Printf("workload %s: %d accesses, %d objects in %d groups\n",
		ev.Name, profile.Records, profile.Objects.NumObjects(), len(profile.Objects.Groups))
	if rasg != nil {
		fmt.Printf("  RASG: %8d symbols  %8d bytes\n", rasg.Symbols(), rasg.EncodedBytes())
		fmt.Printf("  OMSG: %8d symbols  %8d bytes  (%.1f%% smaller)\n",
			profile.Symbols(), profile.EncodedBytes(), whomp.CompressionGain(profile, rasg))
	} else {
		fmt.Printf("  OMSG: %8d symbols  %8d bytes  (RASG degraded to %s; no comparison)\n",
			profile.Symbols(), profile.EncodedBytes(), rrung)
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
	return ev.Finish(os.Stdout, &deg)
}
