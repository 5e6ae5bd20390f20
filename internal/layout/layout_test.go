package layout

import (
	"sort"
	"testing"
	"testing/quick"

	"ormprof/internal/cachesim"
	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/plan"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
	"ormprof/internal/workloads"
)

// sessionTrace builds the field-reorder scenario: a pool of 128-byte
// records whose hot fields sit at offsets 0 and 96 (two cache lines apart).
func sessionTrace(t *testing.T) ([]profiler.Record, *omc.OMC) {
	t.Helper()
	buf := &trace.Buffer{}
	m := memsim.New(buf)
	m.Start()
	const nRecs = 512
	pool := m.Alloc(1, nRecs*128)
	for round := 0; round < 10; round++ {
		for i := 0; i < nRecs; i++ {
			rec := pool + trace.Addr(i*128)
			m.Load(1, rec, 8)
			m.Load(2, rec+96, 8)
			m.Store(3, rec+96, 8)
		}
	}
	m.Free(pool)
	m.End()
	return profiler.TranslateTrace(buf.Events, nil)
}

// poolGroup is the session pool's group in sessionTrace's object table.
func poolGroup(t *testing.T, o *omc.OMC) omc.GroupInfo {
	t.Helper()
	for _, g := range o.Groups() {
		if g.Site == 1 {
			return g
		}
	}
	t.Fatal("no group for the pool site")
	return omc.GroupInfo{}
}

func TestPlanFieldsHotFirst(t *testing.T) {
	recs, o := sessionTrace(t)
	f, err := PlanFields(recs, poolGroup(t, o), 128)
	if err != nil {
		t.Fatal(err)
	}
	if f.Site != 1 || f.RecordSize != 128 || len(f.NewOffset) != 128/SlotSize {
		t.Fatalf("order = site %d, record %d, %d slots", f.Site, f.RecordSize, len(f.NewOffset))
	}
	// Hot slots: 0 (one access/record/round) and 12 (two). Hot-first
	// packing must place slot 12 at offset 0 and slot 0 at offset 8.
	if f.NewOffset[12] != 0 {
		t.Errorf("hottest slot 12 mapped to %d, want 0", f.NewOffset[12])
	}
	if f.NewOffset[0] != 8 {
		t.Errorf("slot 0 mapped to %d, want 8", f.NewOffset[0])
	}
}

func TestPlanFieldsRejectsBadRecordSize(t *testing.T) {
	g := omc.GroupInfo{ID: 1, Site: 1}
	if _, err := PlanFields(nil, g, 0); err == nil {
		t.Error("record size 0 accepted")
	}
	if _, err := PlanFields(nil, g, 12); err == nil {
		t.Error("non-multiple record size accepted")
	}
}

func TestRemapIsBijective(t *testing.T) {
	recs, o := sessionTrace(t)
	f, err := PlanFields(recs, poolGroup(t, o), 128)
	if err != nil {
		t.Fatal(err)
	}
	check := func(off uint32) bool {
		o := uint64(off) % (512 * 128)
		m := f.Remap(o)
		// Same record, valid range, and injective on slot starts.
		if m/128 != o/128 || m >= 512*128 {
			return false
		}
		return m%SlotSize == o%SlotSize
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Injectivity over one record's slots.
	seen := make(map[uint64]bool)
	for s := uint64(0); s < 128; s += SlotSize {
		m := f.Remap(s)
		if seen[m] {
			t.Fatalf("Remap collides at %d", s)
		}
		seen[m] = true
	}
}

func TestFieldReorderReducesMisses(t *testing.T) {
	recs, o := sessionTrace(t)
	f, err := PlanFields(recs, poolGroup(t, o), 128)
	if err != nil {
		t.Fatal(err)
	}
	before, skipB := Evaluate(recs, OriginalResolver(o), cachesim.L1D)
	after, skipA := Evaluate(recs, PlanResolver(&plan.Plan{Fields: []plan.FieldOrder{f}}, o), cachesim.L1D)
	if skipB != 0 || skipA != 0 {
		t.Fatalf("skipped %d/%d accesses", skipB, skipA)
	}
	imp := Improvement(before, after)
	// The working set (512 records × 2 hot lines = 64 KiB) thrashes a
	// 32 KiB L1; packing the two hot fields into one line halves the hot
	// footprint. Expect a large improvement.
	if imp < 30 {
		t.Errorf("field reorder improvement = %.1f%% (before %d misses, after %d), want >= 30%%",
			imp, before.Misses, after.Misses)
	}
}

// linkedListPlacements profiles the linked-list workload with clutter
// through a Planner and returns its trace, object table and first-touch
// placement plan.
func linkedListPlacements(t *testing.T) ([]profiler.Record, *omc.OMC, *plan.Plan) {
	t.Helper()
	prog := workloads.NewLinkedList(workloads.Config{Scale: 8, Seed: 3})
	buf := &trace.Buffer{}
	memsim.Run(prog, buf)
	recs, o := profiler.TranslateTrace(buf.Events, nil)
	p := NewPlanner()
	for _, r := range recs {
		p.Consume(r)
	}
	full := p.BuildPlan("linkedlist", o)
	if len(full.Placements) == 0 {
		t.Fatal("no objects placed")
	}
	return recs, o, &plan.Plan{Region: full.Region, Placements: full.Placements}
}

func TestClusterReducesMisses(t *testing.T) {
	// Nodes are scattered, so each 48-byte node occupies its own line;
	// packing them in first-touch order makes consecutive nodes share
	// lines.
	recs, o, pl := linkedListPlacements(t)
	before, _ := Evaluate(recs, OriginalResolver(o), cachesim.L1D)
	after, skipped := Evaluate(recs, PlanResolver(pl, o), cachesim.L1D)
	if skipped != 0 {
		t.Fatalf("skipped %d", skipped)
	}
	if after.Misses >= before.Misses {
		t.Errorf("clustering did not reduce misses: %d -> %d", before.Misses, after.Misses)
	}
}

func TestClusterPlanPlacementsDisjoint(t *testing.T) {
	_, _, pl := linkedListPlacements(t)
	// Packed placements lie in the region and do not overlap.
	ps := append([]plan.ObjectPlacement(nil), pl.Placements...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Addr < ps[j].Addr })
	for i, e := range ps {
		if e.Addr < pl.Region {
			t.Fatalf("placement %#x below region", uint64(e.Addr))
		}
		if i > 0 && ps[i-1].Addr+trace.Addr(ps[i-1].Size) > e.Addr {
			t.Fatalf("placements at %#x (%d bytes) and %#x overlap",
				uint64(ps[i-1].Addr), ps[i-1].Size, uint64(e.Addr))
		}
	}
}

func TestOriginalResolverErrors(t *testing.T) {
	o := omc.New(nil)
	o.Alloc(1, 0x1000, 16, 0)
	r := OriginalResolver(o)
	if _, ok := r(omc.Ref{Group: 1, Object: 0, Offset: 16}); ok {
		t.Error("out-of-object offset resolved")
	}
	if _, ok := r(omc.Ref{Group: 5}); ok {
		t.Error("unknown group resolved")
	}
	if a, ok := r(omc.Ref{Group: omc.Unmapped, Offset: 0x42}); !ok || a != 0x42 {
		t.Error("unmapped ref should resolve to its raw address")
	}
}

func TestImprovement(t *testing.T) {
	if Improvement(cachesim.Stats{Misses: 100}, cachesim.Stats{Misses: 60}) != 40 {
		t.Error("improvement math wrong")
	}
	if Improvement(cachesim.Stats{}, cachesim.Stats{Misses: 5}) != 0 {
		t.Error("zero-miss baseline should report 0")
	}
}
