package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ormprof/internal/cliutil"
	"ormprof/internal/decomp"
	"ormprof/internal/hotstream"
	"ormprof/internal/whomp"
)

// grammarCmd makes the OMSG tangible: collect a WHOMP profile and print one
// dimension's Sequitur grammar — its hottest rules with their expansions —
// the way §3.2 reads patterns like (0, 36)* out of the offset grammar.
func grammarCmd(args []string) error {
	fs := flag.NewFlagSet("grammar", flag.ExitOnError)
	w, scale, seed, n, tf := workloadFlags(fs)
	dimName := fs.String("dim", "offset", "dimension: instr, group, object, or offset")
	workers := cliutil.WorkersFlag(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	var dim decomp.Dimension
	switch *dimName {
	case "instr":
		dim = decomp.DimInstr
	case "group":
		dim = decomp.DimGroup
	case "object":
		dim = decomp.DimObject
	case "offset":
		dim = decomp.DimOffset
	default:
		return fmt.Errorf("unknown dimension %q", *dimName)
	}

	ev, err := load(*w, *scale, *seed, tf)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	profile, rung, err := cliutil.Analyze(ev, &deg, *workers, func(w int) *whomp.Profiler { return whomp.NewParallel(ev.Sites, w) })
	if err != nil {
		return err
	}
	if profile == nil {
		fmt.Printf("workload %s: grammar unavailable (degraded to %s)\n", ev.Name, rung)
		return ev.Finish(os.Stdout, &deg)
	}
	g := profile.Grammars[dim]

	fmt.Printf("workload %s, %s-dimension grammar: %d rules, %d symbols for %d accesses (%.1fx)\n\n",
		ev.Name, dim, g.NumRules(), g.Symbols(), profile.Records, float64(profile.Records)/float64(g.Symbols()))

	streams := hotstream.Extract(g, hotstream.Options{
		MinLength:  2,
		MinFreq:    2,
		MaxStreams: *n,
		KeepNested: true,
	})
	sort.Slice(streams, func(i, j int) bool { return streams[i].Heat > streams[j].Heat })
	fmt.Println("hottest rules (repeated subsequences):")
	for i, s := range streams {
		preview := s.Symbols
		ellipsis := ""
		if len(preview) > 16 {
			preview = preview[:16]
			ellipsis = " …"
		}
		fmt.Printf("  R%-4d ×%-6d len %-6d %v%s\n", s.RuleID, s.Freq, len(s.Symbols), preview, ellipsis)
		if i+1 == *n {
			break
		}
	}
	if len(streams) == 0 {
		fmt.Println("  (no repeated subsequences — the stream is unique throughout)")
	}
	return ev.Finish(os.Stdout, &deg)
}
