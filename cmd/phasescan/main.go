// Command phasescan runs phase-cognizant LEAP profiling (the paper's §6
// future work, after Sherwood et al.'s phase tracking): it detects program
// phases from the instruction-frequency signature of access intervals,
// collects one LEAP profile per phase, and compares the aggregate capture
// against the monolithic profile.
//
// Usage:
//
//	phasescan [-workload NAME] [-scale N] [-seed N] [-interval N] [-max-lmads N]
//	          [-record trace.ormtrace | -replay trace.ormtrace]
package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/phase"
	"ormprof/internal/profiler"
	"ormprof/internal/report"
	"ormprof/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "single workload (default: all seven)")
		scale    = flag.Int("scale", 1, "workload scale factor")
		seed     = flag.Int64("seed", 42, "workload random seed")
		interval = flag.Int("interval", 4096, "accesses per phase-detection interval")
		maxLMADs = flag.Int("max-lmads", 0, "LMAD budget per stream (0 = paper default)")
	)
	tf := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*workload, workloads.Config{Scale: *scale, Seed: *seed}, *interval, *maxLMADs, tf); err != nil {
		cliutil.Fatal("phasescan", err)
	}
}

func run(workload string, cfg workloads.Config, interval, maxLMADs int, tf *cliutil.TraceFlags) error {
	names := workloads.Names()
	if workload != "" {
		names = []string{workload}
	} else if tf.Active() {
		names = []string{""}
	}

	var deg cliutil.Degraded
	var ev *cliutil.Events
	tbl := report.NewTable("Benchmark", "Phases", "Transitions", "Monolithic capture", "Phase-cognizant capture")
	for _, name := range names {
		flags := tf
		if workload == "" && !tf.Active() {
			flags = &cliutil.TraceFlags{}
		}
		var err error
		if ev, err = flags.Load(name, cfg); err != nil {
			return err
		}

		// Only the monolithic LEAP baseline runs through the governed entry
		// point; the phase-cognizant pass is the experiment's subject and
		// stays lossless so the comparison measures phases, not sampling.
		mono, rung, err := cliutil.Analyze(ev, &deg, 1, func(int) *leap.Profiler { return leap.New(ev.Sites, maxLMADs) })
		if err != nil {
			return err
		}
		monoCell := "degraded (" + rung.String() + ")"
		if mono != nil {
			acc, _ := mono.SampleQuality()
			monoCell = report.Pct(acc)
		}

		cog := phase.NewCognizantLEAP(phase.Config{IntervalLen: interval}, maxLMADs)
		cdc := profiler.NewCDC(omc.New(ev.Sites), cog)
		_, perr := ev.Pass(cdc)
		if err := deg.Check(perr); err != nil {
			return err
		}
		cdc.Finish()
		cogAcc, _ := phase.Quality(cog.Profiles(ev.Name))

		det := cog.Detector()
		tbl.AddRowf(ev.Name, det.NumPhases(), det.Transitions(),
			monoCell, report.Pct(cogAcc))
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout
	fmt.Println("\nphase-cognizant streams are more homogeneous, so the same LMAD budget")
	fmt.Println("captures at least as much per phase (§6 future work, implemented here).")
	// A governed run reads exactly one stream (-workload or -replay), so
	// the last stream's Finish renders every governance report.
	return ev.Finish(os.Stdout, &deg)
}
