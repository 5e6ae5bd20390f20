package decomp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

func randomRecords(rng *rand.Rand, n int) []profiler.Record {
	recs := make([]profiler.Record, n)
	for i := range recs {
		recs[i] = profiler.Record{
			Instr: trace.InstrID(rng.Intn(8)),
			Ref: omc.Ref{
				Group:  omc.GroupID(rng.Intn(4)),
				Object: uint32(rng.Intn(16)),
				Offset: uint64(rng.Intn(64) * 8),
			},
			Time: trace.Time(i),
		}
	}
	return recs
}

// horizontal splits recs into their four dimension streams, as WHOMP's
// per-dimension grammars hold them.
func horizontal(recs []profiler.Record) Horizontal {
	var h Horizontal
	for _, r := range recs {
		h.Instr = append(h.Instr, Value(r, DimInstr))
		h.Group = append(h.Group, Value(r, DimGroup))
		h.Object = append(h.Object, Value(r, DimObject))
		h.Offset = append(h.Offset, Value(r, DimOffset))
	}
	return h
}

func TestHorizontalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := randomRecords(rng, 500)
	h := horizontal(recs)
	if h.Len() != 500 {
		t.Fatalf("Len = %d", h.Len())
	}
	back := h.Recompose()
	if len(back) != len(recs) {
		t.Fatalf("Recompose returned %d records", len(back))
	}
	for i := range recs {
		if back[i].Instr != recs[i].Instr || back[i].Ref != recs[i].Ref {
			t.Fatalf("record %d: %v != %v", i, back[i], recs[i])
		}
		if back[i].Time != trace.Time(i) {
			t.Fatalf("record %d time %d", i, back[i].Time)
		}
	}
}

func TestDimensionAccessors(t *testing.T) {
	r := profiler.Record{
		Instr: 3,
		Ref:   omc.Ref{Group: 5, Object: 7, Offset: 9},
		Time:  11,
	}
	cases := map[Dimension]uint64{
		DimInstr: 3, DimGroup: 5, DimObject: 7, DimOffset: 9, DimTime: 11,
	}
	for d, want := range cases {
		if got := Value(r, d); got != want {
			t.Errorf("Value(%v) = %d, want %d", d, got, want)
		}
	}
	if DimInstr.String() != "instr" || DimOffset.String() != "offset" || DimTime.String() != "time" {
		t.Error("dimension names wrong")
	}
}

// shards vertically decomposes recs the way the parallel pipeline does:
// each record goes to worker Shard(r, n), in stream order.
func shards(recs []profiler.Record, n int) [][]profiler.Record {
	out := make([][]profiler.Record, n)
	for _, r := range recs {
		w := Shard(r, n)
		out[w] = append(out[w], r)
	}
	return out
}

func TestVerticalByInstr(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := randomRecords(rng, 300)
	const n = 3
	home := make(map[trace.InstrID]int)
	byInstr := make(map[trace.InstrID]int)
	byKey := make(map[InstrGroupKey]int)
	total := 0
	for w, s := range shards(recs, n) {
		total += len(s)
		for i, r := range s {
			if h, ok := home[r.Instr]; ok && h != w {
				t.Fatalf("instr %d split across shards %d and %d", r.Instr, h, w)
			}
			home[r.Instr] = w
			if i > 0 && r.Time <= s[i-1].Time {
				t.Fatalf("shard %d not time-ordered", w)
			}
			byInstr[r.Instr]++
			byKey[InstrGroupKey{Instr: r.Instr, Group: r.Ref.Group}]++
		}
	}
	if total != len(recs) {
		t.Fatalf("shards cover %d of %d records", total, len(recs))
	}
	ids := SortedInstrs(byInstr)
	if len(ids) != len(byInstr) {
		t.Fatalf("SortedInstrs returned %d of %d keys", len(ids), len(byInstr))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("SortedInstrs out of order")
		}
	}
	keys := SortedKeys(byKey)
	if len(keys) != len(byKey) {
		t.Fatalf("SortedKeys returned %d of %d keys", len(keys), len(byKey))
	}
	for i := 1; i < len(keys); i++ {
		a, b := keys[i-1], keys[i]
		if a.Instr > b.Instr || (a.Instr == b.Instr && a.Group >= b.Group) {
			t.Fatal("SortedKeys out of order")
		}
	}
}

// TestQuickVerticalRecomposition checks §2.2's claim for the pipeline's
// vertical decomposition: the time dimension makes the shards invertible,
// so merging them by time stamp reproduces the original stream.
func TestQuickVerticalRecomposition(t *testing.T) {
	f := func(seed int64, nRaw uint8, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, int(nRaw))
		var merged []profiler.Record
		for _, s := range shards(recs, 1+int(wRaw%8)) {
			merged = append(merged, s...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Time < merged[j].Time })
		return reflect.DeepEqual(merged, recs) || (len(recs) == 0 && len(merged) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
