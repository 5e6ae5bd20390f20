package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (checked by
// TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the tools sees; every workload
// reports each of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"events_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p90_ms", "ms"},
	{"report_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's per-module metrics.
var perLayer = []metricDef{
	{"tracefmt.decode_ns_per_event", "ns"},
	{"omc.translate_ns_per_event", "ns"},
	{"omc.snapshot_ms", "ms"},
	{"whomp.consume_ns_per_event", "ns"},
	{"whomp.parallel_ns_per_event", "ns"},
	{"whomp.snapshot_ms", "ms"},
	{"whomp.restore_ms", "ms"},
	{"whomp.grammar_symbols", "count"},
	{"leap.consume_ns_per_event", "ns"},
	{"leap.snapshot_ms", "ms"},
	{"leap.merge_ms", "ms"},
	{"stride.ideal_ns_per_event", "ns"},
	{"stride.fromleap_ms", "ms"},
	{"govern.ladder_ns_per_event", "ns"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"profile.write_ms", "ms"},
	{"serve.frames_per_ack", "frames"},
	{"serve.wire_bytes_per_event", "bytes"},
	{"serve.retries", "count"},
	{"serve.gap_ns_per_event", "ns"},
	{"trace.overhead_pct", "%"},
}

// median is the interpolated median (the mean of the two middle values
// for an even count). It returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns NaN for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailRank is the nearest-rank (1-based) of the reported tail percentile
// over n samples: the highest rank at or below the 90th percentile that
// leaves at least ten samples beyond it, but never below the median's
// rank, so small sample sets report their median rather than nothing.
func tailRank(n int) int {
	if n == 0 {
		return 0
	}
	k := min(ceilDiv(9*n, 10), n-10)
	return max(k, medianRank(n))
}

// medianRank is the nearest-rank (1-based) of the 50th percentile.
func medianRank(n int) int { return ceilDiv(n, 2) }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// weighted is a latency sample standing for n equal samples: one offline
// trace job is the acknowledgement of each of its events.
type weighted struct {
	v float64
	n int
}

// atRankW returns the value of nearest-rank k (1-based) over xs, each
// sample counted as many times as its weight.
func atRankW(xs []weighted, k int) float64 {
	if k <= 0 || len(xs) == 0 {
		return math.NaN()
	}
	s := append([]weighted(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	for _, x := range s {
		if k -= x.n; k <= 0 {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// count is the number of samples xs stands for.
func count(xs []weighted) int {
	n := 0
	for _, x := range xs {
		n += x.n
	}
	return n
}
