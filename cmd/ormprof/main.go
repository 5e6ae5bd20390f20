// Command ormprof is the umbrella inspection tool for the object-relative
// memory profiling toolkit: dump raw probe traces, dump object-relative
// translations, list groups, and inspect saved profile and trace files.
//
// Usage:
//
//	ormprof record    -workload NAME [-o FILE] [-scale S] [-seed S]
//	ormprof trace     -workload NAME [-n N] [-scale S] [-seed S]
//	ormprof translate -workload NAME [-n N] [-scale S] [-seed S]
//	ormprof groups    -workload NAME [-scale S] [-seed S]
//	ormprof inspect   FILE.whomp|FILE.leap|FILE.ormtrace
//	ormprof optimize  -workload NAME [-plan FILE.ormplan] [-workers N] [-csv]
//
// Every workload-driven subcommand also accepts -replay FILE.ormtrace to
// read a recorded trace instead of running the workload, and -record FILE
// to tee the live probe stream to a trace file.
package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/leap"
	"ormprof/internal/memsim"
	"ormprof/internal/report"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "record":
		err = recordCmd(args)
	case "trace":
		err = traceCmd(args)
	case "translate":
		err = translateCmd(args)
	case "groups":
		err = groupsCmd(args)
	case "regularity":
		err = regularityCmd(args)
	case "locality":
		err = localityCmd(args)
	case "grammar":
		err = grammarCmd(args)
	case "inspect":
		err = inspectCmd(args)
	case "diff":
		err = diffCmd(args)
	case "regen":
		err = regenCmd(args)
	case "optimize":
		err = optimizeCmd(args)
	default:
		usage()
	}
	if err != nil {
		cliutil.Fatal("ormprof", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ormprof <command> [flags]

commands:
  record     run a workload and stream its probe trace to a file
  trace      dump the raw probe event stream of a workload
  translate  dump the object-relative 5-tuple stream of a workload
  groups     list the groups and objects a workload allocates
  regularity show the regular/irregular sub-stream separation (Figure 2)
  locality   reuse-distance analysis at line and object granularity
  grammar    print a dimension's OMSG grammar rules (hot repeated patterns)
  inspect    summarize a saved .whomp/.leap profile or .ormtrace trace file
  diff       compare two .leap profiles of the same program across runs
  regen      regenerate the raw access trace from a .whomp profile (losslessness)
  optimize   close the loop: derive an ORMPLAN layout plan, apply it, measure the miss-rate delta`)
	os.Exit(2)
}

// workloadFlags registers the flags every workload-driven subcommand
// shares, including the -record/-replay trace pair.
func workloadFlags(fs *flag.FlagSet) (*string, *int, *int64, *int, *cliutil.TraceFlags) {
	w := fs.String("workload", "linkedlist", "workload name")
	scale := fs.Int("scale", 1, "workload scale factor")
	seed := fs.Int64("seed", 42, "workload random seed")
	n := fs.Int("n", 20, "number of entries to print")
	tf := cliutil.RegisterTraceFlags(fs)
	return w, scale, seed, n, tf
}

// load resolves the workload selection and trace flags into an event
// stream: a live run (teeing to -record if set) or a replayed trace.
func load(name string, scale int, seed int64, tf *cliutil.TraceFlags) (*cliutil.Events, error) {
	return tf.Load(name, workloads.Config{Scale: scale, Seed: seed})
}

func recordCmd(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	w, scale, seed, _, _ := workloadFlags(fs)
	out := fs.String("o", "trace.ormtrace", "output trace file")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	prog, err := workloads.New(*w, workloads.Config{Scale: *scale, Seed: *seed})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	// Streamed straight from the probes: the writer batches events into
	// frames, so recording never materializes the trace.
	tw := tracefmt.NewWriter(f, tracefmt.WithName(*w))
	m := memsim.Run(prog, tw)
	if err := tw.Close(); err != nil {
		return err
	}
	loads, stores, allocs, frees := m.Counters()
	fmt.Printf("recorded %s: %d loads, %d stores, %d allocs, %d frees -> %s (%d bytes)\n",
		*w, loads, stores, allocs, frees, *out, tw.BytesWritten())
	return nil
}

func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	w, scale, seed, n, tf := workloadFlags(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	ev, err := load(*w, *scale, *seed, tf)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	shown := 0
	total, perr := ev.Pass(trace.SinkFunc(func(e trace.Event) {
		if shown < *n {
			fmt.Println(e)
		}
		shown++
	}))
	if err := deg.Check(perr); err != nil {
		return err
	}
	if total > *n {
		fmt.Printf("… %d more events\n", total-*n)
	}
	return deg.Err()
}

func translateCmd(args []string) error {
	fs := flag.NewFlagSet("translate", flag.ExitOnError)
	w, scale, seed, n, tf := workloadFlags(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	ev, err := load(*w, *scale, *seed, tf)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	recs, o, rung, err := ev.Translate(&deg)
	if err != nil {
		return err
	}
	if o == nil {
		fmt.Printf("translation unavailable (degraded to %s)\n", rung)
		return ev.Finish(os.Stdout, &deg)
	}
	for i, r := range recs {
		if i == *n {
			fmt.Printf("… %d more records\n", len(recs)-*n)
			break
		}
		fmt.Printf("%v  group=%s\n", r, o.GroupName(r.Ref.Group))
	}
	translated, unmapped := o.Stats()
	fmt.Printf("translated %d accesses (%d unmapped)\n", translated+unmapped, unmapped)
	return ev.Finish(os.Stdout, &deg)
}

func groupsCmd(args []string) error {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	w, scale, seed, _, tf := workloadFlags(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	ev, err := load(*w, *scale, *seed, tf)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	_, o, rung, err := ev.Translate(&deg)
	if err != nil {
		return err
	}
	if o == nil {
		fmt.Printf("group table unavailable (degraded to %s)\n", rung)
		return ev.Finish(os.Stdout, &deg)
	}
	tbl := report.NewTable("Group", "Name", "Site", "Objects", "First object", "Sizes")
	for _, g := range o.Groups() {
		objs := o.Objects(g.ID)
		sizes := "-"
		first := "-"
		if len(objs) > 0 {
			first = fmt.Sprintf("%#x", uint64(objs[0].Start))
			minS, maxS := objs[0].Size, objs[0].Size
			for _, ob := range objs {
				if ob.Size < minS {
					minS = ob.Size
				}
				if ob.Size > maxS {
					maxS = ob.Size
				}
			}
			if minS == maxS {
				sizes = fmt.Sprintf("%d B", minS)
			} else {
				sizes = fmt.Sprintf("%d-%d B", minS, maxS)
			}
		}
		tbl.AddRowf(g.ID, g.Name, g.Site, g.Count, first, sizes)
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout
	return ev.Finish(os.Stdout, &deg)
}

func inspectCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("inspect takes exactly one profile or trace file")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()

	// Try WHOMP, then LEAP, then a raw trace (each checks its own magic).
	if p, err := whomp.ReadProfile(f); err == nil {
		fmt.Printf("WHOMP profile: workload %q, %d accesses\n", p.Workload, p.Records)
		fmt.Printf("  grammars: %d symbols, %d encoded bytes\n", p.Symbols(), p.EncodedBytes())
		fmt.Printf("  object table: %d groups, %d objects\n", len(p.Objects.Groups), p.Objects.NumObjects())
		return nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	if p, err := leap.ReadProfile(f); err == nil {
		accPct, instrPct := p.SampleQuality()
		fmt.Printf("LEAP profile: workload %q, %d accesses\n", p.Workload, p.Records)
		fmt.Printf("  %d streams, %d timed LMADs, %d encoded bytes (%.0fx compression)\n",
			len(p.Streams), p.TotalLMADs(), p.EncodedSize(), p.CompressionRatio())
		fmt.Printf("  sample quality: %.1f%% accesses, %.1f%% instructions\n", accPct, instrPct)
		return nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	r, err := tracefmt.NewReader(f)
	if err != nil {
		return fmt.Errorf("not a WHOMP profile, LEAP profile, or ORMTRACE trace: %v", err)
	}
	sb := &trace.StatsBuilder{}
	if _, err := trace.Drain(r, sb); err != nil {
		return err
	}
	s := sb.Stats()
	fmt.Printf("ORMTRACE v%d trace: workload %q\n", r.Version(), r.Name())
	fmt.Printf("  %d events: %d loads, %d stores, %d allocs, %d frees\n",
		s.Loads+s.Stores+s.Allocs+s.Frees, s.Loads, s.Stores, s.Allocs, s.Frees)
	fmt.Printf("  %d named allocation sites, %d instructions\n", len(r.Sites()), s.Instrs)
	return nil
}
