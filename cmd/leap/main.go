// Command leap collects LEAP (lossy LMAD) profiles for the benchmark
// workloads and prints the paper's Table 1: compression ratio, time
// dilation, and sample quality.
//
// Usage:
//
//	leap [-workload NAME] [-scale N] [-seed N] [-max-lmads N] [-workers N] [-o profile.leap]
//	     [-record trace.ormtrace | -replay trace.ormtrace]
//
// -record writes the probe trace alongside the live profile; -replay
// profiles a recorded trace instead of running a workload and produces a
// byte-identical profile.
package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/experiments"
	"ormprof/internal/leap"
	"ormprof/internal/report"
	"ormprof/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "run a single workload (default: all seven)")
		scale    = flag.Int("scale", 1, "workload scale factor")
		seed     = flag.Int64("seed", 42, "workload random seed")
		maxLMADs = flag.Int("max-lmads", 0, "LMAD budget per (instruction, group) stream (0 = paper default of 30)")
		out      = flag.String("o", "", "write the LEAP profile of the (single) workload to this file")
		csvOut   = flag.Bool("csv", false, "emit the Table 1 rows as CSV (for plotting)")
	)
	workers := cliutil.WorkersFlag(flag.CommandLine)
	tf := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*workload, workloads.Config{Scale: *scale, Seed: *seed}, *maxLMADs, *out, *csvOut, *workers, tf); err != nil {
		cliutil.Fatal("leap", err)
	}
}

func run(workload string, cfg workloads.Config, maxLMADs int, out string, csvOut bool, workers int, tf *cliutil.TraceFlags) error {
	if workload != "" || tf.Active() {
		return runOne(workload, cfg, maxLMADs, out, workers, tf)
	}

	rows := experiments.Table1(cfg, maxLMADs)
	avg := experiments.Table1Average(rows)
	tbl := report.NewTable("Benchmark", "Accesses", "Compression", "Dilation", "Accesses captured", "Instrs captured")
	for _, r := range append(rows, avg) {
		tbl.AddRowf(r.Benchmark, r.Accesses, report.Ratio(r.Compression),
			fmt.Sprintf("%.1f", r.Dilation), report.Pct(r.AccPct), report.Pct(r.InstrPct))
	}
	if csvOut {
		return tbl.WriteCSV(os.Stdout)
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout
	fmt.Printf("\nTable 1 (paper averages: 3539x compression, 11.5x dilation, 46.5%% accesses, 40.5%% instructions)\n")
	return nil
}

// runOne profiles a single event stream. A governed run that degraded
// below the sampled rung renders only the governance report; the
// degradation exits 2 through the usual salvage path.
func runOne(workload string, cfg workloads.Config, maxLMADs int, out string, workers int, tf *cliutil.TraceFlags) error {
	ev, err := tf.Load(workload, cfg)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	profile, rung, err := cliutil.Analyze(ev, &deg, workers, func(w int) *leap.Profiler { return leap.NewParallel(ev.Sites, maxLMADs, w) })
	if err != nil {
		return err
	}
	if profile == nil {
		fmt.Printf("workload %s: LEAP profile unavailable (degraded to %s)\n", ev.Name, rung)
		return ev.Finish(os.Stdout, &deg)
	}

	accPct, instrPct := profile.SampleQuality()
	fmt.Printf("workload %s: %d accesses, %d streams, %d LMADs\n",
		ev.Name, profile.Records, len(profile.Streams), profile.TotalLMADs())
	fmt.Printf("  profile: %d bytes (compression %.0fx)\n", profile.EncodedSize(), profile.CompressionRatio())
	fmt.Printf("  sample quality: %.1f%% of accesses, %.1f%% of instructions\n", accPct, instrPct)

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := profile.WriteTo(f); err != nil {
			return err
		}
		fmt.Printf("  wrote profile to %s\n", out)
	}
	return ev.Finish(os.Stdout, &deg)
}
