package ormprof

import (
	"testing"

	"ormprof/internal/cliutil"
	"ormprof/internal/workloads"
)

// BenchmarkOptimizePipeline runs the closed PGO loop end to end — live
// profiling pass with streaming plan derivation, LEAP prefetch pass, plan
// assembly, and the before/after hierarchy evaluation including the live
// re-run under the plan-driven allocator — on the clustering showcase.
// The reported metric is the L1 miss reduction the loop measures.
func BenchmarkOptimizePipeline(b *testing.B) {
	cfg := workloads.Config{Scale: *benchScale, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tf := &cliutil.TraceFlags{}
		ev, err := tf.Load("hotcold", cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ev.Optimize(cliutil.OptimizeConfig{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Levels) == 0 || res.Levels[0].After.Misses >= res.Levels[0].Before.Misses {
			b.Fatalf("optimize pipeline lost its win: %+v", res.Levels)
		}
		if i == b.N-1 {
			l1 := res.Levels[0]
			b.ReportMetric(100*(1-float64(l1.After.Misses)/float64(l1.Before.Misses)), "L1-miss-reduction-%")
		}
	}
}
