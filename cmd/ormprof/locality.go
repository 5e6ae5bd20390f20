package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cliutil"
	"ormprof/internal/locality"
	"ormprof/internal/report"
)

// localityCmd quantifies a workload's data reference locality (Chilimbi's
// measurement, related work [10]) at two granularities: hardware cache
// lines over raw addresses, and objects over the object-relative stream.
// The line histogram's miss-ratio curve predicts fully associative LRU
// cache behaviour exactly. The object-relative translation runs through
// the governed entry point, so -mem-budget and -approx bound it; the raw
// cache-line pass keeps only a reuse-distance stack and stays ungoverned.
func localityCmd(args []string) error {
	fs := flag.NewFlagSet("locality", flag.ExitOnError)
	w, scale, seed, _, tf := workloadFlags(fs)
	line := fs.Uint("line", 64, "cache line size in bytes")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	ev, err := load(*w, *scale, *seed, tf)
	if err != nil {
		return err
	}
	var deg cliutil.Degraded
	ls := locality.NewLineSink(*line)
	_, perr := ev.Pass(ls)
	if err := deg.Check(perr); err != nil {
		return err
	}
	lineHist := ls.Histogram()
	recs, o, rung, err := ev.Translate(&deg)
	if err != nil {
		return err
	}
	if o == nil {
		fmt.Printf("workload %s: object locality unavailable (degraded to %s)\n", ev.Name, rung)
		return ev.Finish(os.Stdout, &deg)
	}
	objHist := locality.ObjectHistogram(recs)

	fmt.Printf("workload %s: reuse-distance analysis (%d line touches, %d object touches)\n\n",
		ev.Name, lineHist.Total, objHist.Total)
	tbl := report.NewTable("LRU capacity", "Line miss ratio", "Object miss ratio")
	for _, c := range []uint64{8, 32, 128, 512, 2048, 8192} {
		tbl.AddRowf(c, report.Pct(100*lineHist.MissRatio(c)), report.Pct(100*objHist.MissRatio(c)))
	}
	tbl.WriteTo(os.Stdout) //nolint:errcheck // stdout
	fmt.Println("\nline rows predict a fully associative LRU cache of that many lines")
	fmt.Println("exactly; object rows measure locality of the object-relative stream,")
	fmt.Println("independent of allocator placement.")
	return ev.Finish(os.Stdout, &deg)
}
