package ormprof

import (
	"fmt"
	"testing"

	"ormprof/internal/cachesim"
	"ormprof/internal/decomp"
	"ormprof/internal/depend"
	"ormprof/internal/experiments"
	"ormprof/internal/hotstream"
	"ormprof/internal/layout"
	"ormprof/internal/leap"
	"ormprof/internal/locality"
	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/phase"
	"ormprof/internal/plan"
	"ormprof/internal/prefetch"
	"ormprof/internal/profiler"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

// Extension benchmarks: the paper's future-work and motivated-but-unevaluated
// directions, implemented and measured in this repository (see DESIGN.md).

// BenchmarkExtPhaseCognizant measures §6's phase-cognizant profiling: LMAD
// capture of per-phase LEAP profiles vs the monolithic profile on the most
// phase-rich benchmark.
func BenchmarkExtPhaseCognizant(b *testing.B) {
	prog, err := workloads.New("256.bzip2", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)

	var monoAcc, cogAcc float64
	var phases int
	for i := 0; i < b.N; i++ {
		mono := leap.New(sites, 0)
		buf.Replay(mono)
		monoAcc, _ = mono.Profile("bzip2").SampleQuality()

		cog := phase.NewCognizantLEAP(phase.Config{IntervalLen: 4096}, 0)
		cdc := profiler.NewCDC(omc.New(sites), cog)
		buf.Replay(cdc)
		cdc.Finish()
		cogAcc, _ = phase.Quality(cog.Profiles("bzip2"))
		phases = cog.Detector().NumPhases()
	}
	b.ReportMetric(monoAcc, "monolithic-capture%")
	b.ReportMetric(cogAcc, "phase-capture%")
	b.ReportMetric(float64(phases), "phases")
}

// BenchmarkExtCrossObjectStride measures the §4.2.2 extension: stride score
// when cross-object strides are recovered via the object table, vs the base
// within-object post-process, on the benchmark where it matters (twolf).
func BenchmarkExtCrossObjectStride(b *testing.B) {
	prog, err := workloads.New("300.twolf", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)

	var baseScore, extScore float64
	for i := 0; i < b.N; i++ {
		ideal := stride.NewIdeal()
		buf.Replay(ideal)
		real := ideal.StronglyStrided()

		lp := leap.New(sites, 0)
		buf.Replay(lp)
		profile := lp.Profile("300.twolf")
		baseScore = stride.Score(real, stride.FromLEAP(profile))
		extScore = stride.Score(real, stride.FromLEAPCrossObject(profile, stride.OMCLocator{OMC: lp.OMC()}))
	}
	b.ReportMetric(baseScore, "within-object-score%")
	b.ReportMetric(extScore, "cross-object-score%")
}

// BenchmarkExtLayoutOptimization measures the §1/§3.2 payoff: L1 miss
// reduction from profile-directed field reordering and object clustering
// on 181.mcf, and from field reordering alone on 197.parser. Field orders
// come from PlanFields with each group's first object size as the record
// size; clustering uses the streaming Planner's first-touch placements, as
// `ormprof optimize` derives them.
func BenchmarkExtLayoutOptimization(b *testing.B) {
	translate := func(name string) ([]profiler.Record, *omc.OMC) {
		prog, err := workloads.New(name, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		buf, sites := experiments.Record(prog, nil)
		return profiler.TranslateTrace(buf.Events, sites)
	}
	mcfRecs, mcf := translate("181.mcf")
	parserRecs, parser := translate("197.parser")

	var fieldImp, clusterImp, parserFieldImp float64
	for i := 0; i < b.N; i++ {
		fieldImp = fieldReorderReduction(mcfRecs, mcf)
		parserFieldImp = fieldReorderReduction(parserRecs, parser)

		before, _ := layout.Evaluate(mcfRecs, layout.OriginalResolver(mcf), cachesim.L1D)
		planner := layout.NewPlanner()
		for _, r := range mcfRecs {
			planner.Consume(r)
		}
		full := planner.BuildPlan("181.mcf", mcf)
		cluster := &plan.Plan{Region: full.Region, Placements: full.Placements}
		afterC, _ := layout.Evaluate(mcfRecs, layout.PlanResolver(cluster, mcf), cachesim.L1D)
		clusterImp = layout.Improvement(before, afterC)
	}
	b.ReportMetric(fieldImp, "fieldreorder-miss-reduction%")
	b.ReportMetric(clusterImp, "cluster-miss-reduction%")
	b.ReportMetric(parserFieldImp, "parser-fieldreorder-miss-reduction%")
}

// fieldReorderReduction is the L1 miss reduction from hot-first field
// orders alone, one per group whose first object spans at least two slots.
func fieldReorderReduction(recs []profiler.Record, o *omc.OMC) float64 {
	before, _ := layout.Evaluate(recs, layout.OriginalResolver(o), cachesim.L1D)
	fields := &plan.Plan{}
	for _, g := range o.Groups() {
		objs := o.Objects(g.ID)
		if len(objs) == 0 || objs[0].Size%layout.SlotSize != 0 || objs[0].Size < 2*layout.SlotSize {
			continue
		}
		if f, err := layout.PlanFields(recs, g, objs[0].Size); err == nil {
			fields.Fields = append(fields.Fields, f)
		}
	}
	after, _ := layout.Evaluate(recs, layout.PlanResolver(fields, o), cachesim.L1D)
	return layout.Improvement(before, after)
}

// BenchmarkExtHotStreamCoverage measures §3.2's hot-data-stream consumer:
// how much of the access stream the top object-dimension streams cover.
func BenchmarkExtHotStreamCoverage(b *testing.B) {
	prog := workloads.NewLinkedList(workloads.Config{Scale: *benchScale, Seed: 42})
	buf := &trace.Buffer{}
	m := memsim.Run(prog, buf)

	var coverage float64
	var n int
	for i := 0; i < b.N; i++ {
		wp := whomp.New(m.StaticSites())
		buf.Replay(wp)
		g := wp.Profile("linkedlist").Grammars[decomp.DimObject]
		streams := hotstream.Extract(g, hotstream.Options{MinLength: 4, MinFreq: 4, MaxStreams: 5})
		coverage = hotstream.Coverage(g, streams)
		n = len(streams)
	}
	b.ReportMetric(100*coverage, "coverage%")
	b.ReportMetric(float64(n), "streams")
}

// BenchmarkExtProfileMerge measures cross-run merging (enabled by
// allocator-invariant keys): merged sample quality over three differently
// seeded runs.
func BenchmarkExtProfileMerge(b *testing.B) {
	var profiles []*leap.Profile
	for seed := int64(1); seed <= 3; seed++ {
		prog, err := workloads.New("197.parser", workloads.Config{Scale: *benchScale, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		buf, sites := experiments.Record(prog, nil)
		lp := leap.New(sites, 0)
		buf.Replay(lp)
		profiles = append(profiles, lp.Profile("197.parser"))
	}
	var acc float64
	var streams int
	for i := 0; i < b.N; i++ {
		merged := leap.Merge(profiles...)
		acc, _ = merged.SampleQuality()
		streams = len(merged.Streams)
	}
	b.ReportMetric(acc, "merged-capture%")
	b.ReportMetric(float64(streams), "streams")
}

// BenchmarkExtPoolPolicy reproduces footnote 2's design choice: profiling
// 197.parser with its allocation pool as one object (the paper's default)
// vs every carved record as its own object.
func BenchmarkExtPoolPolicy(b *testing.B) {
	var rows []experiments.PoolPolicyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PoolPolicyAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.OMSGBytes), "omsg-bytes/"+r.Policy)
		b.ReportMetric(r.AccPct, "capture%/"+r.Policy)
		b.ReportMetric(r.DepWithin10, "dep-within10%/"+r.Policy)
	}
}

// BenchmarkExtConnorsWindowSweep shows how the Connors baseline's accuracy
// and cost scale with its history window — the knob the paper tuned to
// match LEAP's running time.
func BenchmarkExtConnorsWindowSweep(b *testing.B) {
	prog, err := workloads.New("256.bzip2", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, _ := experiments.Record(prog, nil)
	ideal := depend.NewIdeal()
	buf.Replay(ideal)

	for _, window := range []int{64, 1024, 16384} {
		window := window
		b.Run(fmt.Sprintf("w%d", window), func(b *testing.B) {
			var within float64
			for i := 0; i < b.N; i++ {
				con := depend.NewConnors(window)
				buf.Replay(con)
				within = 100 * depend.Distribution(ideal.Result(), con.Result()).WithinTen()
			}
			b.ReportMetric(within, "within10%")
		})
	}
}

// BenchmarkExtSampling measures burst sampling (§6's collection-cost lever):
// stride-detection accuracy as the sampled fraction shrinks. Object probes
// always pass so translation stays correct.
func BenchmarkExtSampling(b *testing.B) {
	prog, err := workloads.New("164.gzip", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)

	ideal := stride.NewIdeal()
	buf.Replay(ideal)
	real := ideal.StronglyStrided()

	for _, frac := range []struct {
		name          string
		burst, period uint64
	}{
		{"full", 1, 1},
		{"1of4", 1024, 4096},
		{"1of16", 1024, 16384},
	} {
		frac := frac
		b.Run(frac.name, func(b *testing.B) {
			var score float64
			var kept uint64
			for i := 0; i < b.N; i++ {
				lp := leap.New(sites, 0)
				s := trace.NewSampler(frac.burst, frac.period, lp)
				buf.Replay(s)
				est := stride.FromLEAP(lp.Profile("sampled"))
				score = stride.Score(real, est)
				_, kept = s.Stats()
			}
			b.ReportMetric(score, "stride-score%")
			b.ReportMetric(float64(kept), "accesses-profiled")
		})
	}
}

// BenchmarkExtLocality quantifies data reference locality (related work
// [10]): predicted fully-associative L1 miss ratio from the line
// reuse-distance histogram, and the allocator-independent object-level
// miss ratio from the object-relative stream.
func BenchmarkExtLocality(b *testing.B) {
	prog, err := workloads.New("181.mcf", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)
	recs, _ := profiler.TranslateTrace(buf.Events, sites)

	var lineMR, objMR float64
	for i := 0; i < b.N; i++ {
		lineHist := locality.LineHistogram(buf.Events, 64)
		objHist := locality.ObjectHistogram(recs)
		lineMR = lineHist.MissRatio(512) // 32 KiB of 64 B lines
		objMR = objHist.MissRatio(512)
	}
	b.ReportMetric(100*lineMR, "line-missratio%@512")
	b.ReportMetric(100*objMR, "object-missratio%@512")
}

// BenchmarkExtStaticElision measures §6's first future-work item: eliding
// probes for statically analyzable instructions and injecting their
// descriptors afterwards. Reported: the event-volume saving and the stride
// score of the elided+injected profile (which must stay perfect).
func BenchmarkExtStaticElision(b *testing.B) {
	prog, err := workloads.New("164.gzip", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)

	ideal := stride.NewIdeal()
	buf.Replay(ideal)
	real := ideal.StronglyStrided()

	// "Compiler analysis": the perfectly strided instructions found by the
	// reference profiler stand in for what static analysis would prove.
	skip := make(map[trace.InstrID]bool)
	for id, info := range real {
		if info.Frac >= 0.999 {
			skip[id] = true
		}
	}

	var savedPct, score float64
	for i := 0; i < b.N; i++ {
		lp := leap.New(sites, 0)
		el := trace.NewElider(skip, lp)
		buf.Replay(el)
		profile := lp.Profile("elided")

		// Inject the statically known behaviour back: the compiler knows
		// the loop trip counts and strides of the instructions it elided.
		var descs []leap.StaticDescriptor
		for id := range skip {
			info := real[id]
			descs = append(descs, leap.StaticDescriptor{
				Instr: id, Group: 1, // group known to the compiler via the site
				OffsetStride: info.Stride,
				Count:        uint32(ideal.Execs()[id]),
				Reps:         1,
			})
		}
		leap.InjectStatic(profile, descs...)

		dropped, kept := el.Stats()
		savedPct = 100 * float64(dropped) / float64(dropped+kept)
		score = stride.Score(real, stride.FromLEAP(profile))
	}
	b.ReportMetric(savedPct, "events-elided%")
	b.ReportMetric(score, "stride-score%")
}

// BenchmarkExtPrefetch quantifies §4's second application end to end:
// demand-miss reduction from LEAP-directed stride prefetching on a
// streaming-heavy benchmark.
func BenchmarkExtPrefetch(b *testing.B) {
	prog, err := workloads.New("183.equake", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)
	lp := leap.New(sites, 0)
	buf.Replay(lp)
	profile := lp.Profile("183.equake")
	recs, o := profiler.TranslateTrace(buf.Events, sites)

	var res prefetch.Result
	for i := 0; i < b.N; i++ {
		_, res = prefetch.EvaluateProfile(recs, o, profile, cachesim.L1D)
	}
	b.ReportMetric(res.MissReduction(), "miss-reduction%")
	b.ReportMetric(100*res.Accuracy(), "prefetch-accuracy%")
}
