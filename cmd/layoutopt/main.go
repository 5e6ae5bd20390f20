// Command layoutopt runs the profile-directed data-layout optimizations the
// paper motivates (§1, §3.2): field reordering driven by the offset
// dimension and CCDP-style object clustering driven by the object dimension,
// each evaluated by replaying the object-relative stream through a cache
// simulator under the original and optimized layouts.
//
// It is a thin wrapper over the shared optimize pipeline (internal/cliutil):
// one derivation pass feeds the streaming layout planner, and the field and
// clustering halves of the resulting plan are evaluated separately and
// together. `ormprof optimize` runs the same pipeline end-to-end (ORMPLAN
// serialization, live re-run, per-level deltas).
//
// Usage:
//
//	layoutopt [-workload NAME] [-scale N] [-seed N] [-cache l1|l2]
//	          [-record trace.ormtrace | -replay trace.ormtrace]
package main

import (
	"flag"
	"fmt"
	"os"

	"ormprof/internal/cachesim"
	"ormprof/internal/cliutil"
	"ormprof/internal/layout"
	"ormprof/internal/plan"
	"ormprof/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "197.parser", "workload name")
		scale    = flag.Int("scale", 1, "workload scale factor")
		seed     = flag.Int64("seed", 42, "workload random seed")
		cache    = flag.String("cache", "l1", "cache model: l1 or l2")
	)
	tf := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	if err := run(*workload, workloads.Config{Scale: *scale, Seed: *seed}, *cache, tf); err != nil {
		cliutil.Fatal("layoutopt", err)
	}
}

func run(workload string, wcfg workloads.Config, cache string, tf *cliutil.TraceFlags) error {
	cfg := cachesim.L1D
	if cache == "l2" {
		cfg = cachesim.L2
	} else if cache != "l1" {
		return fmt.Errorf("unknown cache %q", cache)
	}

	ev, err := tf.Load(workload, wcfg)
	if err != nil {
		return err
	}
	// One shared derivation pass: OMC translation, the record stream, and
	// the streaming layout planner. Salvaged errors (lenient corruption
	// skip, deadline, budget degradation) still yield partial results and
	// exit 2 through deg.
	var deg cliutil.Degraded
	d, rung, err := ev.DeriveLayout(&deg)
	if err != nil {
		return err
	}
	if d == nil {
		fmt.Printf("workload %s: layout analysis unavailable (degraded to %s)\n", ev.Name, rung)
		return ev.Finish(os.Stdout, &deg)
	}
	recs, o := d.Records, d.OMC
	full := d.Planner.BuildPlan(ev.Name, o)
	orig := layout.OriginalResolver(layout.OMCInfo{OMC: o})

	before, _ := layout.Evaluate(recs, orig, cfg)
	fmt.Printf("workload %s, %d accesses, cache %dKiB/%dB-line/%d-way\n\n",
		ev.Name, len(recs), cfg.SizeBytes>>10, cfg.LineBytes, cfg.Ways)
	fmt.Printf("original layout:   %8d misses (%.2f%% miss rate)\n", before.Misses, 100*before.MissRate())

	// The plan's two halves, evaluated separately: field reordering alone,
	// clustering alone, then the full plan.
	fieldsOnly := &plan.Plan{Workload: full.Workload, Region: full.Region, Fields: full.Fields}
	afterF, _ := layout.Evaluate(recs, layout.PlanResolver(fieldsOnly, o), cfg)
	fmt.Printf("field reordering:  %8d misses (%.2f%%)  — %+.1f%% misses, %d sites replanned\n",
		afterF.Misses, 100*afterF.MissRate(), -layout.Improvement(before, afterF), len(full.Fields))

	clusterOnly := &plan.Plan{Workload: full.Workload, Region: full.Region, Placements: full.Placements}
	afterC, _ := layout.Evaluate(recs, layout.PlanResolver(clusterOnly, o), cfg)
	fmt.Printf("object clustering: %8d misses (%.2f%%)  — %+.1f%% misses, %d objects packed\n",
		afterC.Misses, 100*afterC.MissRate(), -layout.Improvement(before, afterC), len(full.Placements))

	bothResolver := layout.PlanResolver(full, o)
	both, _ := layout.Evaluate(recs, bothResolver, cfg)
	fmt.Printf("both:              %8d misses (%.2f%%)  — %+.1f%% misses\n",
		both.Misses, 100*both.MissRate(), -layout.Improvement(before, both))

	// Cycle-level estimate through an L1+L2 hierarchy (4 / 12 / 200 cycle
	// latencies): the end-to-end payoff of the layout changes.
	amat := func(res layout.Resolver) float64 {
		h := cachesim.NewHierarchy(cachesim.L1D, cachesim.L2)
		h.ReplayRecords(recs, res)
		return h.AMAT(4, 12, 200)
	}
	beforeAMAT, afterAMAT := amat(orig), amat(bothResolver)
	fmt.Printf("\nAMAT (L1 4cy, L2 12cy, mem 200cy): %.2f -> %.2f cycles/access (%.1f%% faster)\n",
		beforeAMAT, afterAMAT, 100*(1-afterAMAT/beforeAMAT))
	return ev.Finish(os.Stdout, &deg)
}
