// optimize.go holds the profile→plan→re-measure pipeline behind
// `ormprof optimize`: one deterministic sequence that
// profiles a workload (live or replayed), derives an ORMPLAN layout plan
// from the streaming profiler output, applies it, and measures before/after
// cache-miss rates per hierarchy level.
//
// The paper's §1 insight makes the "apply" step cheap: the profile names
// accesses by (group, object, offset), so a new layout is just a different
// resolution function. Live runs additionally re-execute the workload in
// memsim under a plan-driven allocator (placement at Alloc, field remap at
// access time) — the two application paths land on the same addresses.
package cliutil

import (
	"fmt"
	"io"

	"ormprof/internal/cachesim"
	"ormprof/internal/govern"
	"ormprof/internal/layout"
	"ormprof/internal/leap"
	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/plan"
	"ormprof/internal/prefetch"
	"ormprof/internal/profiler"
	"ormprof/internal/report"
	"ormprof/internal/trace"
)

// optimizeMode is translateMode plus the streaming layout planner, fed by
// the same record fan-out, so the optimize pass derives its plan in the
// single pass that collects the record stream. A governed optimize pass
// accounts the planner's histograms and first-touch table alongside the
// OMC and the record collector, so a tight budget degrades plan
// derivation through the ladder instead of OOMing.
type optimizeMode struct {
	*profiler.CDC
	col     *profiler.Collector
	planner *layout.Planner
}

func newOptimizeMode(sites map[trace.SiteID]string) *optimizeMode {
	col := &profiler.Collector{}
	p := layout.NewPlanner()
	return &optimizeMode{CDC: profiler.NewCDC(omc.New(sites), profiler.Fanout{col, p}), col: col, planner: p}
}

// OptimizeConfig parameterizes the optimize pipeline.
type OptimizeConfig struct {
	// Workers parallelizes the LEAP prefetch-analysis pass; results are
	// identical for any count.
	Workers int
	// Lookahead is the prefetch lookahead distance in strides
	// (0 = prefetch.DefaultLookahead).
	Lookahead int64
	// PlanPath, when non-empty, is where the ORMPLAN artifact is saved.
	PlanPath string
}

// LevelDelta is one hierarchy level's before/after comparison.
type LevelDelta struct {
	Name          string
	Config        cachesim.Config
	Before, After cachesim.Stats
}

// OptimizeResult is everything the optimize pipeline measured.
type OptimizeResult struct {
	Name     string
	Events   int // probe events in the profiling pass
	Accesses int // translated object-relative records

	// Plan is the derived layout plan; nil when a governed run degraded
	// below the full rung and no plan could be built.
	Plan      *plan.Plan
	PlanBytes int
	PlanPath  string

	// Live reports how "after" was measured: a live re-run under the
	// plan-driven allocator, or replay resolution of the recorded tuples.
	Live           bool
	Placed, Allocs uint64 // live mode: plan-placed / total heap allocations
	SkippedBefore  int    // unresolvable records in the "before" replay
	SkippedAfter   int    // unresolvable records in the "after" replay

	Levels                []LevelDelta
	BeforeAMAT, AfterAMAT float64

	// EvalNote is non-empty when the memory budget degraded or skipped the
	// evaluation phase; EvalErr is the matching salvage error (exit 2).
	EvalNote string
	EvalErr  error

	// Rung is where the plan-derivation pass ended: RungFull on an
	// ungoverned run; below object-sampled there is no Plan.
	Rung govern.Rung
}

// optLevels is the evaluation hierarchy: L1D backed by L2.
var (
	optLevels     = []cachesim.Config{cachesim.L1D, cachesim.L2}
	optLevelNames = []string{"L1D", "L2"}
	// amatLatencies are cycles per level plus memory: L1 4, L2 12, mem 200.
	amatLatencies = []float64{4, 12, 200}
)

// evalFootprint bounds one hierarchy's simulator memory: every set filled
// to full associativity (see Cache.Footprint).
func evalFootprint(levels []cachesim.Config) int64 {
	var total int64
	for _, cfg := range levels {
		sets := int64(cfg.Sets())
		total += sets*24 + sets*int64(cfg.Ways)*8
	}
	return total
}

// Optimize runs the closed loop: derive a plan from one profiling pass,
// collect prefetch rules from a LEAP pass, serialize the ORMPLAN, and
// measure before/after miss rates per hierarchy level. The returned error
// follows the Pass convention — salvaged errors accompany partial results;
// callers feed it through Degraded and end with Finish.
func (ev *Events) Optimize(cfg OptimizeConfig) (*OptimizeResult, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	var deg Degraded

	// Pass 1: one translate pass, via Run, with the streaming layout
	// planner riding the record fan-out.
	m, rung, n, err := run(ev, &deg, 1, func(int) *optimizeMode { return newOptimizeMode(ev.Sites) })
	if err != nil {
		return nil, err
	}
	res := &OptimizeResult{Name: ev.Name, Live: !ev.Replayed(), Rung: rung}
	if m == nil {
		return res, deg.Err() // degraded below sampled: no plan, governance only
	}
	m.Finish()
	recs, o, planner := m.col.Records, m.OMC, m.planner
	res.Events, res.Accesses = n, len(recs)

	// Pass 2: LEAP stride analysis for the plan's prefetch rules.
	var rules []plan.PrefetchRule
	lprof, _, err := Analyze(ev, &deg, cfg.Workers, func(w int) *leap.Profiler { return leap.NewParallel(ev.Sites, 0, w) })
	if err != nil {
		return nil, err
	}
	if lprof != nil {
		rules = prefetch.BuildPlan(lprof, int64(optLevels[0].LineBytes), cfg.Lookahead).Rules()
	}

	// Assemble and serialize the plan.
	pl := planner.BuildPlan(ev.Name, o)
	pl.Prefetch = rules
	pl.Canonicalize()
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("derived plan invalid: %w", err)
	}
	b, err := plan.Encode(pl)
	if err != nil {
		return nil, err
	}
	res.Plan, res.PlanBytes = pl, len(b)
	if cfg.PlanPath != "" {
		if err := plan.Save(cfg.PlanPath, pl); err != nil {
			return nil, err
		}
		res.PlanPath = cfg.PlanPath
	}

	// Evaluation phase: two hierarchies (before/after). On a governed run
	// (its passes created the shared budget) their worst-case footprint is
	// charged up front — the geometry bounds it — degrading
	// deterministically: drop the outer level, then skip evaluation
	// entirely, rather than OOM.
	levels, names := optLevels, optLevelNames
	var charged int64
	if ev.govBudget != nil {
		for {
			need := 2 * evalFootprint(levels)
			ev.govBudget.Add(need)
			if !ev.govBudget.Over() {
				charged = need
				break
			}
			ev.govBudget.Add(-need)
			if len(levels) == 1 {
				levels, names = nil, nil
				res.EvalNote = "evaluation skipped (memory budget)"
				break
			}
			levels, names = levels[:len(levels)-1], names[:len(names)-1]
			res.EvalNote = fmt.Sprintf("evaluation degraded to %s only (memory budget)", names[len(names)-1])
		}
		if res.EvalNote != "" {
			res.EvalErr = &govern.DegradedError{Limit: ev.govBudget.EffectiveLimit(), Rung: govern.RungFull}
			deg.Check(res.EvalErr) //nolint:errcheck // DegradedError is always salvaged
		}
	}
	if len(levels) > 0 {
		before := cachesim.NewHierarchy(levels...)
		res.SkippedBefore = before.ReplayRecords(recs, layout.OriginalResolver(o))

		after := cachesim.NewHierarchy(levels...)
		if res.Live {
			// Genuine re-run: same deterministic program, plan-driven
			// placement at Alloc and field remap at access time.
			pa := memsim.NewPlanAllocator(memsim.NewFreeListAllocator(), pl.Placer())
			err := ev.Rerun(trace.SinkFunc(func(e trace.Event) {
				if e.Kind == trace.EvAccess {
					after.Access(e.Addr, e.Size)
				}
			}), memsim.WithAllocator(pa), memsim.WithRemap(pl.FieldRemapper()))
			if err != nil {
				return nil, err
			}
			res.Placed, res.Allocs = pa.Placed()
		} else {
			// Replay resolution: the recorded tuples under the plan's
			// resolution function.
			res.SkippedAfter = after.ReplayRecords(recs, layout.PlanResolver(pl, o))
		}

		for i := range levels {
			res.Levels = append(res.Levels, LevelDelta{
				Name: names[i], Config: levels[i],
				Before: before.Level(i), After: after.Level(i),
			})
		}
		lat := append(append([]float64{}, amatLatencies[:len(levels)]...), amatLatencies[len(amatLatencies)-1])
		res.BeforeAMAT, res.AfterAMAT = before.AMAT(lat...), after.AMAT(lat...)
		if charged != 0 {
			ev.govBudget.Add(-charged)
		}
	}
	return res, deg.Err()
}

// DeltaTable renders the per-level before/after comparison.
func (r *OptimizeResult) DeltaTable() *report.Table {
	t := report.NewTable("level", "geometry", "before-misses", "miss%", "after-misses", "miss%", "delta")
	for _, lv := range r.Levels {
		t.AddRow(lv.Name,
			fmt.Sprintf("%dKiB/%dB/%d-way", lv.Config.SizeBytes>>10, lv.Config.LineBytes, lv.Config.Ways),
			fmt.Sprintf("%d", lv.Before.Misses), report.Pct(100*lv.Before.MissRate()),
			fmt.Sprintf("%d", lv.After.Misses), report.Pct(100*lv.After.MissRate()),
			report.Delta(lv.Before.Misses, lv.After.Misses))
	}
	return t
}

// WriteText renders the full human-readable report (governance excluded:
// callers append it with Events.Finish, keeping the tail section uniform
// across tools).
func (r *OptimizeResult) WriteText(w io.Writer) error {
	if r.Plan == nil {
		_, err := fmt.Fprintf(w, "workload %s: optimization unavailable (degraded to %s)\n", r.Name, r.Rung)
		return err
	}
	fmt.Fprintf(w, "workload %s: %d events, %d accesses\n", r.Name, r.Events, r.Accesses)
	fmt.Fprintf(w, "plan: %d field orders, %d placements, %d prefetch rules (%d bytes)",
		len(r.Plan.Fields), len(r.Plan.Placements), len(r.Plan.Prefetch), r.PlanBytes)
	if r.PlanPath != "" {
		fmt.Fprintf(w, " -> %s", r.PlanPath)
	}
	fmt.Fprintln(w)
	if r.Live {
		fmt.Fprintf(w, "applied via live re-run: %d/%d heap allocations placed\n", r.Placed, r.Allocs)
	} else {
		fmt.Fprintf(w, "applied via replay resolution: %d before / %d after records unresolvable\n",
			r.SkippedBefore, r.SkippedAfter)
	}
	if r.EvalNote != "" {
		fmt.Fprintf(w, "note: %s\n", r.EvalNote)
	}
	if len(r.Levels) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	if _, err := r.DeltaTable().WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if r.BeforeAMAT > 0 {
		fmt.Fprintf(w, "AMAT (L1 4cy, L2 12cy, mem 200cy): %.2f -> %.2f cycles/access (%.1f%% faster)\n",
			r.BeforeAMAT, r.AfterAMAT, 100*(1-r.AfterAMAT/r.BeforeAMAT))
	} else {
		fmt.Fprintf(w, "AMAT (L1 4cy, L2 12cy, mem 200cy): %.2f -> %.2f cycles/access\n",
			r.BeforeAMAT, r.AfterAMAT)
	}
	return nil
}
