// Package layout implements the data-layout optimizations the paper's
// profiles are meant to direct (§1, §3.2, related work [4][13]):
//
//   - field reordering: rearrange the slots of a record type so the hot
//     fields share cache lines, driven by the offset dimension of the
//     object-relative stream;
//   - object clustering: reassign object placements so temporally adjacent
//     objects pack together (Calder et al.'s cache-conscious data
//     placement), driven by the object dimension and the OMC's lifetime
//     table.
//
// Both plans are evaluated by replaying the *object-relative* stream through
// the cache simulator under the original and the proposed layouts. Working
// object-relative rather than raw is what makes this possible at all: the
// profile describes accesses by (group, object, offset), so a new layout is
// just a different resolution function from tuples to addresses.
package layout

import (
	"fmt"
	"sort"

	"ormprof/internal/cachesim"
	"ormprof/internal/omc"
	"ormprof/internal/plan"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

// SlotSize is the granularity of field rearrangement, one machine word.
const SlotSize = 8

// PlanFields builds a hot-first field order for the records of group g,
// taking offsets modulo the given record size so a pool object holding
// many records (the paper's footnote 2 pools) is rearranged record-wise.
// The order is keyed by g's allocation site, so it evaluates through
// PlanResolver like the orders Planner derives. Returns an error if
// recordSize is not a positive multiple of SlotSize.
func PlanFields(recs []profiler.Record, g omc.GroupInfo, recordSize uint32) (plan.FieldOrder, error) {
	if recordSize == 0 || recordSize%SlotSize != 0 {
		return plan.FieldOrder{}, fmt.Errorf("layout: record size %d not a positive multiple of %d", recordSize, SlotSize)
	}
	hits := make([]uint64, recordSize/SlotSize)
	for _, r := range recs {
		if r.Ref.Group == g.ID {
			hits[r.Ref.Offset%uint64(recordSize)/SlotSize]++
		}
	}
	return hotFirst(g.Site, recordSize, hits), nil
}

// hotFirst orders one record's slots by descending access count (stable,
// so equally hot slots keep their order) and packs them from offset 0.
func hotFirst(site trace.SiteID, recordSize uint32, hits []uint64) plan.FieldOrder {
	order := make([]int, len(hits)) // order[newIdx] = oldSlot
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return hits[order[a]] > hits[order[b]] })
	f := plan.FieldOrder{Site: site, RecordSize: recordSize, NewOffset: make([]uint32, len(hits))}
	for newIdx, oldSlot := range order {
		f.NewOffset[oldSlot] = uint32(newIdx) * SlotSize
	}
	return f
}

// objKey identifies an object across the run.
type objKey struct {
	g      omc.GroupID
	serial uint32
}

// clusterRegion is far above both simulated segments, so packed placements
// never collide with original ones.
const clusterRegion trace.Addr = 0x7000_0000_0000

// Resolver maps an object-relative reference to the address it would have
// under some layout. It is cachesim's Resolve type: a resolver plugs
// directly into Cache.ReplayRecords / Hierarchy.ReplayRecords.
type Resolver = cachesim.Resolve

// OriginalResolver resolves references to their original run addresses via
// the object table (unmapped references keep their raw address).
func OriginalResolver(o *omc.OMC) Resolver {
	return func(ref omc.Ref) (trace.Addr, bool) {
		if ref.Group == omc.Unmapped {
			return trace.Addr(ref.Offset), true
		}
		info := o.Lookup(ref.Group, ref.Object)
		if info == nil || ref.Offset >= uint64(info.Size) {
			return 0, false
		}
		return info.Start + trace.Addr(ref.Offset), true
	}
}

// Evaluate replays the object-relative stream through a cache under the
// given layout and returns the statistics. References the resolver cannot
// place are skipped (counted in the returned skip count).
func Evaluate(recs []profiler.Record, resolve Resolver, cfg cachesim.Config) (cachesim.Stats, int) {
	c := cachesim.New(cfg)
	skipped := c.ReplayRecords(recs, resolve)
	return c.Stats(), skipped
}

// Improvement reports the relative miss reduction of after vs before, in
// percent (positive = fewer misses).
func Improvement(before, after cachesim.Stats) float64 {
	if before.Misses == 0 {
		return 0
	}
	return 100 * (1 - float64(after.Misses)/float64(before.Misses))
}
