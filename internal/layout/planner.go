package layout

import (
	"sort"

	"ormprof/internal/omc"
	"ormprof/internal/plan"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

// maxPlanSlots caps the per-group slot histogram: objects beyond
// maxPlanSlots*SlotSize bytes (32 KiB) do not get field orders — a record
// that large spans the whole cache anyway.
const maxPlanSlots = 4096

// Planner is a streaming SCC that accumulates exactly what a layout plan
// needs — per-group slot-hit histograms for field ordering and the global
// first-touch object order for clustering — without buffering the record
// stream: the optimize pipeline feeds it straight from the profiler's
// collector, so plan derivation is single-pass and budget-accountable.
//
// Footprint is maintained incrementally as histograms grow and objects are
// first seen, so a governance ladder can charge the planner per event.
type Planner struct {
	hist  map[omc.GroupID][]uint64 // slot (offset/SlotSize) -> access count
	seen  map[objKey]struct{}
	touch []objKey // global first-touch order, heap and static alike
	foot  int64
}

// NewPlanner returns an empty planner.
func NewPlanner() *Planner {
	return &Planner{
		hist: make(map[omc.GroupID][]uint64),
		seen: make(map[objKey]struct{}),
	}
}

const (
	plannerHistEntry  = 8
	plannerTouchEntry = 8 + 16 // objKey in slice + map set entry
)

// Consume feeds one object-relative record. It implements profiler.SCC's
// consume side so the planner can ride any collector fan-out.
func (p *Planner) Consume(r profiler.Record) {
	if r.Ref.Group == omc.Unmapped {
		return
	}
	slot := r.Ref.Offset / SlotSize
	if slot < maxPlanSlots {
		h := p.hist[r.Ref.Group]
		if uint64(len(h)) <= slot {
			grown := make([]uint64, slot+1)
			copy(grown, h)
			p.foot += int64(len(grown)-len(h)) * plannerHistEntry
			h = grown
		}
		h[slot]++
		p.hist[r.Ref.Group] = h
	}
	k := objKey{r.Ref.Group, r.Ref.Object}
	if _, ok := p.seen[k]; !ok {
		p.seen[k] = struct{}{}
		p.touch = append(p.touch, k)
		p.foot += plannerTouchEntry
	}
}

// Finish implements the SCC contract; the planner needs no finalization.
func (p *Planner) Finish() {}

// Footprint reports the planner's accumulated memory in bytes, maintained
// incrementally (no walking).
func (p *Planner) Footprint() int64 { return p.foot }

// FieldOrders derives hot-first field orders for every group whose objects
// share one uniform size that is a multiple of SlotSize with at least two
// slots (record size = object size). Orders are keyed by the group's
// allocation site so they apply across runs; groups are visited in OMC
// order and a site is planned at most once.
func (p *Planner) FieldOrders(o *omc.OMC) []plan.FieldOrder {
	var out []plan.FieldOrder
	planned := make(map[trace.SiteID]bool)
	for _, g := range o.Groups() {
		if planned[g.Site] {
			continue
		}
		objs := o.Objects(g.ID)
		if len(objs) == 0 {
			continue
		}
		size := objs[0].Size
		uniform := true
		for _, ob := range objs {
			if ob.Size != size {
				uniform = false
				break
			}
		}
		if !uniform || size%SlotSize != 0 || size < 2*SlotSize || size > maxPlanSlots*SlotSize {
			continue
		}
		hist := p.hist[g.ID]
		nSlots := int(size / SlotSize)
		// Fold the flat offset histogram record-wise: offset/SlotSize mod
		// nSlots is the record slot (pool objects hold many records).
		hits := make([]uint64, nSlots)
		for slot, n := range hist {
			hits[slot%nSlots] += n
		}
		out = append(out, hotFirst(g.Site, size, hits))
		planned[g.Site] = true
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Placements packs every touched heap object contiguously in first-touch
// order starting at region (16-byte aligned, as the simulated allocators
// align), keyed by (site, serial) via the object table. Static objects
// (site >= 1<<24) already have fixed linker placements and are skipped.
func (p *Planner) Placements(o *omc.OMC, region trace.Addr) []plan.ObjectPlacement {
	groupSite := make(map[omc.GroupID]trace.SiteID)
	for _, g := range o.Groups() {
		groupSite[g.ID] = g.Site
	}
	var out []plan.ObjectPlacement
	next := region
	for _, k := range p.touch {
		site, ok := groupSite[k.g]
		if !ok || site >= 1<<24 {
			continue
		}
		info := o.Lookup(k.g, k.serial)
		if info == nil || info.Size == 0 {
			continue
		}
		out = append(out, plan.ObjectPlacement{Site: site, Serial: k.serial, Size: info.Size, Addr: next})
		next += trace.Addr((info.Size + 15) &^ 15)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Serial < out[j].Serial
	})
	return out
}

// BuildPlan assembles the complete layout plan for a workload from the
// planner's state: field orders plus first-touch placements at the standard
// packed region.
func (p *Planner) BuildPlan(workload string, o *omc.OMC) *plan.Plan {
	pl := &plan.Plan{
		Workload:   workload,
		Region:     clusterRegion,
		Fields:     p.FieldOrders(o),
		Placements: p.Placements(o, clusterRegion),
	}
	return pl
}

// PlanResolver resolves object-relative references to the addresses the
// plan's layout gives them: field orders rearrange intra-object offsets and
// placements relocate whole objects, with the original layout as fallback.
// This is the replay-mode twin of re-running under memsim's PlanAllocator:
// same plan, applied to the recorded stream instead of a live re-execution.
func PlanResolver(pl *plan.Plan, o *omc.OMC) Resolver {
	siteGroup := make(map[trace.SiteID]omc.GroupID)
	for _, g := range o.Groups() {
		if _, ok := siteGroup[g.Site]; !ok {
			siteGroup[g.Site] = g.ID
		}
	}
	fields := make(map[omc.GroupID]*plan.FieldOrder, len(pl.Fields))
	for i := range pl.Fields {
		if g, ok := siteGroup[pl.Fields[i].Site]; ok {
			fields[g] = &pl.Fields[i]
		}
	}
	placed := make(map[objKey]trace.Addr, len(pl.Placements))
	for _, e := range pl.Placements {
		g, ok := siteGroup[e.Site]
		if !ok {
			continue
		}
		if info := o.Lookup(g, e.Serial); info == nil || info.Size != e.Size {
			continue // stale placement: size drifted since profiling
		}
		placed[objKey{g, e.Serial}] = e.Addr
	}
	orig := OriginalResolver(o)
	return func(ref omc.Ref) (trace.Addr, bool) {
		if ref.Group == omc.Unmapped {
			return orig(ref)
		}
		if f, ok := fields[ref.Group]; ok {
			ref.Offset = f.Remap(ref.Offset)
		}
		if a, ok := placed[objKey{ref.Group, ref.Object}]; ok {
			return a + trace.Addr(ref.Offset), true
		}
		return orig(ref)
	}
}
