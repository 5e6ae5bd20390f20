package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/prefetch"
	"ormprof/internal/workloads"
)

// optimizeCmd closes the PGO loop (ROADMAP item 3): profile the workload,
// derive a placement/field-ordering/prefetch plan, serialize it as an
// ORMPLAN artifact, apply it (live re-run under the plan-driven allocator,
// or replay resolution for -replay), and report before/after miss rates per
// hierarchy level. Output is byte-identical for any -workers count.
func optimizeCmd(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	w, scale, seed, _, tf := workloadFlags(fs)
	planOut := fs.String("plan", "", `output ORMPLAN path (default <workload>.ormplan; "none" to skip)`)
	lookahead := fs.Int64("lookahead", prefetch.DefaultLookahead, "prefetch lookahead distance in strides")
	csvOut := fs.Bool("csv", false, "emit the before/after delta table as CSV instead of the text report")
	workers := cliutil.WorkersFlag(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	ev, err := tf.Load(*w, workloads.Config{Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	path := *planOut
	if path == "" {
		path = ev.Name + ".ormplan"
	}
	if path == "none" {
		path = ""
	}

	var deg cliutil.Degraded
	res, err := ev.Optimize(cliutil.OptimizeConfig{
		Workers:   *workers,
		Lookahead: *lookahead,
		PlanPath:  path,
	})
	if err := deg.Check(err); err != nil {
		return err
	}
	if *csvOut && res.Plan != nil {
		if err := res.DeltaTable().WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := res.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	// The governance report, if any, is set off from the results by a
	// blank line.
	var gov bytes.Buffer
	err = ev.Finish(&gov, &deg)
	if gov.Len() > 0 {
		fmt.Println()
		if _, werr := gov.WriteTo(os.Stdout); werr != nil {
			return werr
		}
	}
	return err
}
