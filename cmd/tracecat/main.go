// Command tracecat prints, filters, counts, and verifies the records of a
// recorded probe trace (the ORMTRACE format written by -record / ormprof
// record).
//
// Usage:
//
//	tracecat [-n N] [-kind access|alloc|free] [-instr ID] [-site ID]
//	         [-from T] [-to T] [-count] [-stats] [-approx] [-lenient]
//	         [-verify] FILE.ormtrace
//
// With no flags it prints every record. Filters compose (logical AND);
// -count prints only the number of matching records, -stats a summary of
// the whole trace. -lenient skips damaged frames instead of aborting;
// -verify checks trace integrity end to end and reports a damage summary.
// Exit codes: 0 clean, 1 unreadable or hard error, 2 readable but damaged
// (some events were lost).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/govern"
	"ormprof/internal/sketch"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
)

func main() {
	var (
		n       = flag.Int("n", 0, "print at most N matching records (0 = all)")
		kind    = flag.String("kind", "", "keep only records of this kind: access, alloc, or free")
		instr   = flag.Int("instr", -1, "keep only access records of this instruction ID")
		site    = flag.Int("site", -1, "keep only alloc records of this allocation site ID")
		from    = flag.Uint64("from", 0, "keep only records with time >= this")
		to      = flag.Uint64("to", 0, "keep only records with time <= this (0 = no upper bound)")
		count   = flag.Bool("count", false, "print only the number of matching records")
		stats   = flag.Bool("stats", false, "print a summary of the whole trace instead of records")
		lenient = flag.Bool("lenient", false, "skip damaged frames instead of aborting (exit code 2 if events were lost)")
		verify  = flag.Bool("verify", false, "verify trace integrity end to end and print a damage report")
		approx  = flag.Bool("approx", false, "with -stats: summarize with fixed-memory sketches and print the top-K heavy hitters with their error bounds")
	)
	memBudget := cliutil.SizeFlag(flag.CommandLine, "mem-budget",
		"memory budget (e.g. 64M) for -stats; over budget the summary degrades and the tool exits 2 (0 = unlimited)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecat [flags] FILE.ormtrace")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *approx && !*stats {
		fmt.Fprintln(os.Stderr, "tracecat: -approx requires -stats (sketches summarize; they do not print records)")
		flag.Usage()
		os.Exit(2)
	}

	var err error
	if *verify {
		err = verifyTrace(flag.Arg(0))
	} else {
		err = run(flag.Arg(0), *n, *kind, *instr, *site, *from, *to, *count, *stats, *lenient, *approx, *memBudget)
	}
	if err != nil {
		cliutil.Fatal("tracecat", err)
	}
}

// verifyTrace reads the whole trace in lenient mode and reports its
// integrity: a clean pass returns nil (exit 0); a damaged-but-salvageable
// trace prints what was lost and returns the *tracefmt.CorruptionError
// (exit 2); an unreadable header is a hard error (exit 1).
func verifyTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := tracefmt.NewReader(f, tracefmt.WithLenient())
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	_, err = trace.Drain(r, trace.SinkFunc(func(trace.Event) {}))
	st := r.Stats()
	fmt.Printf("%s: ORMTRACE v%d, workload %q\n", path, r.Version(), r.Name())
	if err == nil && !st.Damaged() {
		fmt.Printf("  OK: %d frames, %d events, no damage\n", st.Frames, st.Events)
		return nil
	}
	fmt.Printf("  DAMAGED: %d corruption incident(s)\n", st.Corruptions)
	fmt.Printf("  salvaged %d events in %d frames; lost >=%d events (%d frames skipped, %d bytes discarded)\n",
		st.Events, st.Frames, st.SkippedEvents, st.SkippedFrames, st.SkippedBytes)
	if err == nil {
		// Damage without a terminal error should not happen, but never
		// report a damaged trace as clean.
		err = &tracefmt.CorruptionError{Stats: st}
	}
	return err
}

func run(path string, n int, kind string, instr, site int, from, to uint64, count, stats, lenient, approx bool, memBudget int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var opts []tracefmt.ReaderOption
	if lenient {
		opts = append(opts, tracefmt.WithLenient())
	}
	r, err := tracefmt.NewReader(f, opts...)
	if err != nil {
		return err
	}

	var wantKind trace.EventKind
	haveKind := kind != ""
	switch kind {
	case "":
	case "access":
		wantKind = trace.EvAccess
	case "alloc":
		wantKind = trace.EvAlloc
	case "free":
		wantKind = trace.EvFree
	default:
		return fmt.Errorf("unknown -kind %q (want access, alloc, or free)", kind)
	}

	match := func(e trace.Event) bool {
		if haveKind && e.Kind != wantKind {
			return false
		}
		if instr >= 0 && (e.Kind != trace.EvAccess || e.Instr != trace.InstrID(instr)) {
			return false
		}
		if site >= 0 && (e.Kind != trace.EvAlloc || e.Site != trace.SiteID(site)) {
			return false
		}
		if uint64(e.Time) < from {
			return false
		}
		if to != 0 && uint64(e.Time) > to {
			return false
		}
		return true
	}

	// In lenient mode a damaged trace still streams everything salvageable;
	// the terminal *tracefmt.CorruptionError is remembered so results print
	// before the tool exits 2.
	var deg cliutil.Degraded

	if stats {
		if approx || memBudget > 0 {
			// The stats builder's instruction/site/live tables are the only
			// unbounded state here; a directly built ladder governs them.
			// -approx starts the ladder on the fixed-memory sketch rung.
			cfg := govern.Config{
				Budget: govern.NewBudget(memBudget),
				Full:   func() govern.Mode { return &trace.StatsBuilder{} },
			}
			if approx {
				cfg.StartRung = govern.RungSketchStride
			}
			lad := govern.NewLadder(cfg)
			total, derr := trace.Drain(r, lad)
			if err := deg.Check(derr); err != nil {
				return err
			}
			if sb, ok := lad.FullMode().(*trace.StatsBuilder); ok {
				printStats(path, r, sb, total)
			} else if snap := lad.Snapshot(); snap.Rung.Sketch() {
				if err := printApproxStats(path, r, snap, total); err != nil {
					return err
				}
			} else {
				fmt.Printf("trace %s: summary unavailable (degraded to %s)\n", path, lad.Rung())
			}
			if err := lad.WriteReport(os.Stdout); err != nil {
				return err
			}
			if err := deg.Check(lad.Err()); err != nil {
				return err
			}
			return deg.Err()
		}
		sb := &trace.StatsBuilder{}
		total, derr := trace.Drain(r, sb)
		if err := deg.Check(derr); err != nil {
			return err
		}
		printStats(path, r, sb, total)
		return deg.Err()
	}

	matched, printed := 0, 0
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if herr := deg.Check(err); herr != nil {
				return herr
			}
			break // salvaged: everything readable has been delivered
		}
		if !match(e) {
			continue
		}
		matched++
		if count {
			continue
		}
		if n > 0 && printed == n {
			continue
		}
		fmt.Println(e)
		printed++
	}
	if count {
		fmt.Println(matched)
	} else if matched > printed {
		fmt.Printf("… %d more matching records\n", matched-printed)
	}
	return deg.Err()
}

// printApproxStats prints the sketch-rung summary: exact scalar totals
// plus the top-K heavy hitters with their one-sided error bounds. The full
// error accounting (epsilon/delta, digram FPP) follows in the governance
// report.
func printApproxStats(path string, r *tracefmt.Reader, snap *govern.Snapshot, total int) error {
	fmt.Printf("trace %s: workload %q, format v%d (approximate summary)\n", path, r.Name(), r.Version())
	switch {
	case snap.SketchStride != nil:
		s := snap.SketchStride
		fmt.Printf("  %d events: %d loads, %d stores, %d allocs, %d frees\n",
			total, s.Loads, s.Stores, s.Allocs, s.Frees)
		hot, err := sketch.RestoreTopK(s.Hot)
		if err != nil {
			return err
		}
		ents := hot.Entries()
		fmt.Printf("  top-%d hot cache lines (space-saving, overcount <= %d):\n", len(ents), hot.ErrorBound())
		for _, e := range ents {
			fmt.Printf("    line %#x count %d err %d\n", e.Key.A<<6, e.Count, e.Err)
		}
	case snap.SketchCounters != nil:
		s := snap.SketchCounters
		fmt.Printf("  %d events: %d loads, %d stores, %d allocs, %d frees\n",
			total, s.Loads, s.Stores, s.Allocs, s.Frees)
		hot, err := sketch.RestoreTopK(s.Hot)
		if err != nil {
			return err
		}
		ents := hot.Entries()
		fmt.Printf("  top-%d hot allocation sites (space-saving, overcount <= %d):\n", len(ents), hot.ErrorBound())
		for _, e := range ents {
			fmt.Printf("    site %d count %d err %d\n", e.Key.A, e.Count, e.Err)
		}
	}
	return nil
}

func printStats(path string, r *tracefmt.Reader, sb *trace.StatsBuilder, total int) {
	s := sb.Stats()
	fmt.Printf("trace %s: workload %q, format v%d\n", path, r.Name(), r.Version())
	fmt.Printf("  %d events: %d loads, %d stores, %d allocs, %d frees\n",
		total, s.Loads, s.Stores, s.Allocs, s.Frees)
	fmt.Printf("  %d distinct instructions, %d distinct sites (%d named), peak %d bytes live\n",
		s.Instrs, s.Sites, len(r.Sites()), s.BytesLive)
}
