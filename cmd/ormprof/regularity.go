package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ormprof/internal/cliutil"
	"ormprof/internal/leap"
	"ormprof/internal/report"
)

// regularityCmd renders the paper's Figure 2 concept on a real workload:
// after object-relative translation and vertical decomposition, each
// (instruction, group) sub-stream is either regular (captured by a handful
// of linear descriptors) or irregular (overflows the budget) — the
// separation that makes the profile useful. The LEAP pass runs through
// the governed entry point, so -mem-budget and -approx bound it.
func regularityCmd(args []string) error {
	fs := flag.NewFlagSet("regularity", flag.ExitOnError)
	w, scale, seed, n, tf := workloadFlags(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	ev, err := load(*w, *scale, *seed, tf)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	// The group names come from the profiler's OMC. build's last call made
	// the pipeline whose profile comes back: a ladder stepping down to the
	// sampled rung rebuilds it once.
	var lp *leap.Profiler
	profile, rung, err := cliutil.Analyze(ev, &deg, 0, func(w int) *leap.Profiler {
		lp = leap.NewParallel(ev.Sites, 0, w)
		return lp
	})
	if err != nil {
		return err
	}
	if profile == nil {
		fmt.Printf("workload %s: regularity unavailable (degraded to %s)\n", ev.Name, rung)
		return ev.Finish(os.Stdout, &deg)
	}

	type row struct {
		key     leap.StreamKey
		quality float64
		offered uint64
		lmads   int
	}
	rows := make([]row, 0, len(profile.Streams))
	var regular, irregular uint64
	for _, k := range profile.Keys() {
		s := profile.Streams[k]
		q := 0.0
		if s.Offered > 0 {
			q = float64(s.OffsetCaptured) / float64(s.Offered)
		}
		rows = append(rows, row{key: k, quality: q, offered: s.Offered, lmads: len(s.OffsetLMADs)})
		if q >= 0.9 {
			regular += s.Offered
		} else if q < 0.5 {
			irregular += s.Offered
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].offered > rows[j].offered })

	fmt.Printf("workload %s: %d accesses in %d vertically decomposed sub-streams\n\n",
		ev.Name, profile.Records, len(rows))
	tbl := report.NewTable("Instr", "Group", "Accesses", "Descriptors", "Captured", "Verdict")
	shown := 0
	for _, r := range rows {
		if shown == *n {
			break
		}
		verdict := "mixed"
		switch {
		case r.quality >= 0.9:
			verdict = "REGULAR"
		case r.quality < 0.5:
			verdict = "irregular"
		}
		tbl.AddRowf(fmt.Sprintf("i%d", r.key.Instr), lp.OMC().GroupName(r.key.Group),
			r.offered, r.lmads, report.Pct(100*r.quality), verdict)
		shown++
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout
	fmt.Printf("\nseparation (Figure 2): %.0f%% of accesses in regular sub-streams, %.0f%% irregular\n",
		100*float64(regular)/float64(profile.Records),
		100*float64(irregular)/float64(profile.Records))
	return ev.Finish(os.Stdout, &deg)
}
