package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {5, 3}, {20, 10}, {21, 11}, {50, 40}, {100, 90}, {101, 91}, {1000, 900},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.want)
		}
		if c.n >= 20 && c.n-tailRank(c.n) < 10 {
			t.Errorf("tailRank(%d) leaves %d samples beyond it", c.n, c.n-tailRank(c.n))
		}
	}
	xs := make([]weighted, 100)
	for i := range xs {
		xs[i] = weighted{float64(100 - i), 1} // 100..1, unsorted input
	}
	if got := atRankW(xs, tailRank(len(xs))); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := atRankW(xs, medianRank(len(xs))); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	ws := []weighted{{5, 10}, {1, 80}, {9, 10}}
	if got := atRankW(ws, tailRank(count(ws))); got != 5 {
		t.Errorf("weighted p90 = %v, want 5", got)
	}
	if got := atRankW(ws, 91); got != 9 {
		t.Errorf("weighted rank 91 = %v, want 9", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestMetricsMatchBenchmarkJSON holds the program's metric lists to the
// names, units and shape BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("metric %q unit %q: bad name or unit", d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("metric %q listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 50 * ms, End: 70 * ms}, // runs past b
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * time.Millisecond, 30 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}
