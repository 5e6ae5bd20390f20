package ormprof

// Hot-path benchmarks and the zero-allocation gate for the event loop.
//
// The event loop is the per-event cost every profile pays: the CDC receives
// a probe event, updates the OMC on alloc/free, and Floor-translates every
// access against the live-object map. These benchmarks pin that loop's
// steady-state cost in ns/event, B/op, and allocs/op, plus the end-to-end
// ingest rate (encoded trace bytes → translated, compressed profile) in
// MB/s. docs/PERFORMANCE.md records the methodology and the before/after
// numbers; `make bench-allocs` runs TestEventLoopSteadyStateAllocs as the CI
// gate that steady-state allocations stay at zero.

import (
	"bytes"
	"testing"

	"ormprof/internal/experiments"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/workloads"
)

// churnAccesses is how many access events follow each alloc/free pair in
// one synthetic churn cycle — a heap-heavy 25 % object-event mix, far more
// allocation-intensive than any of the seven workloads, so the allocation
// gate is conservative.
const churnAccesses = 6

// churnTrace builds a steady-state workload for the event loop: nLive
// warm-up allocations, then cycles of (free one object, re-allocate its
// address, access churnAccesses live objects). Replaying the churn slice
// any number of times against the same OMC is self-consistent — every cycle
// frees an address that is live and re-allocates it — so a benchmark can
// loop it without the live set growing or shrinking.
func churnTrace(nLive, cycles int) (warm, churn []trace.Event) {
	const base = trace.Addr(0x10000)
	const objSize = 64
	addrOf := func(i int) trace.Addr { return base + trace.Addr(i*objSize) }
	tm := trace.Time(0)
	next := func() trace.Time { tm++; return tm }

	for i := 0; i < nLive; i++ {
		warm = append(warm, trace.Event{
			Kind: trace.EvAlloc, Time: next(), Site: trace.SiteID(i%16 + 1),
			Addr: addrOf(i), Size: objSize,
		})
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for c := 0; c < cycles; c++ {
		victim := c % nLive
		churn = append(churn,
			trace.Event{Kind: trace.EvFree, Time: next(), Addr: addrOf(victim)},
			trace.Event{Kind: trace.EvAlloc, Time: next(), Site: trace.SiteID(victim%16 + 1),
				Addr: addrOf(victim), Size: objSize},
		)
		for a := 0; a < churnAccesses; a++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			obj := int(rng>>33) % nLive
			churn = append(churn, trace.Event{
				Kind: trace.EvAccess, Time: next(), Instr: trace.InstrID(a + 1),
				Addr: addrOf(obj) + trace.Addr(rng%objSize), Size: 8,
			})
		}
	}
	return warm, churn
}

// discardSCC drops every record: the event loop benchmarks measure the
// CDC and OMC, not a profiling module.
var discardSCC = profiler.SCCFunc(func(profiler.Record) {})

// warmCDC builds a CDC over out with the warm-up live set applied.
func warmCDC(out profiler.SCC, warm []trace.Event) *profiler.CDC {
	cdc := profiler.NewCDC(omc.New(nil), out)
	for _, e := range warm {
		cdc.Emit(e)
	}
	return cdc
}

// BenchmarkEventLoopSteadyState measures the per-event cost of the
// translate loop once the object map is warm: each op is one probe event
// (a 25 % alloc/free churn mix) through CDC → OMC → discard SCC. The
// headline metrics are ns/op (= ns/event) and allocs/op, which must be 0
// in steady state.
func BenchmarkEventLoopSteadyState(b *testing.B) {
	warm, churn := churnTrace(4096, 4096)
	cdc := warmCDC(discardSCC, warm)
	b.ReportAllocs()
	b.SetBytes(12) // one raw (instr, addr) record, as in trace.RawBytes
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		cdc.Emit(churn[i])
		if i++; i == len(churn) {
			i = 0
		}
	}
}

// BenchmarkEventLoopAccessOnly isolates the pure translation cost — every
// op is one access event Floor-translated against a warm 4096-object live
// set, with no object churn at all.
func BenchmarkEventLoopAccessOnly(b *testing.B) {
	warm, churn := churnTrace(4096, 4096)
	accesses := make([]trace.Event, 0, len(churn))
	for _, e := range churn {
		if e.Kind == trace.EvAccess {
			accesses = append(accesses, e)
		}
	}
	cdc := warmCDC(discardSCC, warm)
	b.ReportAllocs()
	b.SetBytes(12)
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		cdc.Emit(accesses[i])
		if i++; i == len(accesses) {
			i = 0
		}
	}
}

// BenchmarkIngestEndToEnd measures the full ingest path on a recorded
// 181.mcf trace: decode the encoded ORMTRACE stream, translate every event
// through a fresh OMC, and (in the leap variant) compress the translated
// stream. MB/s is over the encoded trace bytes — the rate a daemon drains a
// connection or a tool drains a file.
func BenchmarkIngestEndToEnd(b *testing.B) {
	prog, err := workloads.New("181.mcf", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)
	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName("bench"))
	tw.SetSites(sites)
	buf.Replay(tw)
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	encoded := enc.Bytes()

	b.Run("translate", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			cdc := profiler.NewCDC(omc.New(sites), profiler.SCCFunc(func(profiler.Record) {}))
			r, err := tracefmt.NewReader(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := trace.Drain(r, cdc); err != nil {
				b.Fatal(err)
			}
			cdc.Finish()
			if cdc.Records() == 0 {
				b.Fatal("no records translated")
			}
		}
	})
	b.Run("leap", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			lp := leap.New(sites, 0)
			r, err := tracefmt.NewReader(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := trace.Drain(r, lp); err != nil {
				b.Fatal(err)
			}
			if lp.Profile("bench").Records == 0 {
				b.Fatal("empty profile")
			}
		}
	})
}

// BenchmarkWorkloadIngest measures the translate path over every
// workload's encoded trace: decode + OMC translation, reported as MB/s of
// encoded trace plus ns/event. These are the per-workload rows of the
// before/after table in docs/PERFORMANCE.md.
func BenchmarkWorkloadIngest(b *testing.B) {
	for _, name := range workloads.Names() {
		name := name
		b.Run(shortName(name), func(b *testing.B) {
			prog, err := workloads.New(name, benchCfg())
			if err != nil {
				b.Fatal(err)
			}
			buf, sites := experiments.Record(prog, nil)
			var enc bytes.Buffer
			tw := tracefmt.NewWriter(&enc, tracefmt.WithName(name))
			tw.SetSites(sites)
			buf.Replay(tw)
			if err := tw.Close(); err != nil {
				b.Fatal(err)
			}
			encoded := enc.Bytes()
			events := buf.Len()

			b.ReportAllocs()
			b.SetBytes(int64(len(encoded)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cdc := profiler.NewCDC(omc.New(sites), profiler.SCCFunc(func(profiler.Record) {}))
				r, err := tracefmt.NewReader(bytes.NewReader(encoded))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := trace.Drain(r, cdc); err != nil {
					b.Fatal(err)
				}
				cdc.Finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(events)), "ns/event")
		})
	}
}

// TestEventLoopSteadyStateAllocs is the CI allocation gate (`make
// bench-allocs`): one op is a full churn cycle — free + alloc +
// churnAccesses accesses — against a warm object map, and the benchmark
// framework's allocs/op for that cycle must be exactly zero. Amortized
// costs (arena growth once per thousands of objects) divide away; anything
// per-event or per-object fails the gate. The fanout case is the daemon's
// shape: one OMC translation handed to two SCCs through profiler.Fanout.
func TestEventLoopSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks the event loop")
	}
	warm, churn := churnTrace(4096, 4096)
	cycleLen := 2 + churnAccesses
	for _, tc := range []struct {
		name string
		out  profiler.SCC
	}{
		{"discard", discardSCC},
		{"fanout", profiler.Fanout{discardSCC, discardSCC}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) {
				cdc := warmCDC(tc.out, warm)
				b.ResetTimer()
				i := 0
				for n := 0; n < b.N; n++ {
					for c := 0; c < cycleLen; c++ {
						cdc.Emit(churn[i])
						if i++; i == len(churn) {
							i = 0
						}
					}
				}
			})
			if allocs := res.AllocsPerOp(); allocs > 0 {
				t.Fatalf("event loop steady state: %d allocs per churn cycle (free+alloc+%d accesses), want 0\n%s %s",
					allocs, churnAccesses, res.String(), res.MemString())
			}
		})
	}
}
