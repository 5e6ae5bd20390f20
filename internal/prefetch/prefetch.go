// Package prefetch evaluates stride-based software prefetching directed by
// LEAP profiles — the paper's second target optimization (§4: "stride-based
// prefetching performs prefetching for strided memory accesses. To
// facilitate this, strongly strided instructions … must be identified").
//
// A plan maps each strongly strided instruction to a prefetch rule (its
// dominant stride and a lookahead distance). The evaluator replays the
// object-relative stream through the cache simulator, issuing a prefetch
// ahead of every execution of a planned instruction, and reports the demand
// misses with and without prefetching plus the prefetch accuracy.
package prefetch

import (
	"sort"

	"ormprof/internal/cachesim"
	"ormprof/internal/layout"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	ormplan "ormprof/internal/plan"
	"ormprof/internal/profiler"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
)

// Rule is one instruction's prefetch directive.
type Rule struct {
	Stride int64
	// Distance is how many strides ahead to fetch.
	Distance int64
}

// Plan maps strongly strided instructions to rules.
type Plan map[trace.InstrID]Rule

// DefaultLookahead is how many iterations ahead the planner targets —
// enough to cover a memory latency of a couple hundred cycles at a few
// cycles per iteration.
const DefaultLookahead = 16

// BuildPlan derives a prefetch plan from a LEAP profile: one rule per
// strongly strided instruction whose stride reaches a new cache line within
// the lookahead (prefetching inside the current line is useless).
func BuildPlan(p *leap.Profile, lineBytes int64, lookahead int64) Plan {
	if lookahead <= 0 {
		lookahead = DefaultLookahead
	}
	plan := make(Plan)
	for id, info := range stride.FromLEAP(p) {
		if info.Stride == 0 {
			continue
		}
		s := info.Stride
		if s < 0 {
			s = -s
		}
		if s*lookahead < lineBytes {
			continue // never leaves the current line within the window
		}
		plan[id] = Rule{Stride: info.Stride, Distance: lookahead}
	}
	return plan
}

// Instrs lists the planned instructions in ascending order.
func (p Plan) Instrs() []trace.InstrID {
	ids := make([]trace.InstrID, 0, len(p))
	for id := range p {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Rules exports the plan as sorted ORMPLAN prefetch rules.
func (p Plan) Rules() []ormplan.PrefetchRule {
	out := make([]ormplan.PrefetchRule, 0, len(p))
	for _, id := range p.Instrs() {
		r := p[id]
		out = append(out, ormplan.PrefetchRule{Instr: id, Stride: r.Stride, Distance: r.Distance})
	}
	return out
}

// Result compares demand misses without and with prefetching.
type Result struct {
	Baseline   cachesim.Stats
	Prefetched cachesim.Stats
	// Issued counts prefetch line touches; Wasted the already-resident
	// ones.
	Issued, Wasted uint64
}

// MissReduction reports the percentage of demand misses removed.
func (r Result) MissReduction() float64 {
	if r.Baseline.Misses == 0 {
		return 0
	}
	return 100 * (1 - float64(r.Prefetched.Misses)/float64(r.Baseline.Misses))
}

// Accuracy reports the fraction of issued prefetch lines that were not
// already resident (an upper bound on usefulness).
func (r Result) Accuracy() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Issued-r.Wasted) / float64(r.Issued)
}

// Evaluate replays the object-relative stream under cfg twice — without and
// with the plan — resolving addresses through the given layout resolver.
func Evaluate(recs []profiler.Record, resolve layout.Resolver, plan Plan, cfg cachesim.Config) Result {
	base := cachesim.New(cfg)
	for _, r := range recs {
		if addr, ok := resolve(r.Ref); ok {
			base.Access(addr, r.Size)
		}
	}

	pf := cachesim.New(cfg)
	for _, r := range recs {
		addr, ok := resolve(r.Ref)
		if !ok {
			continue
		}
		if rule, planned := plan[r.Instr]; planned {
			// Fetch the line the instruction will touch Distance
			// iterations from now; clamp within the object so the
			// prefetcher never faults past it.
			target := r.Ref
			off := int64(target.Offset) + rule.Stride*rule.Distance
			if off >= 0 {
				target.Offset = uint64(off)
				if pAddr, ok := resolve(target); ok {
					pf.Prefetch(pAddr, r.Size)
				}
			}
		}
		pf.Access(addr, r.Size)
	}

	st := pf.Stats()
	return Result{
		Baseline:   base.Stats(),
		Prefetched: st,
		Issued:     st.Prefetches,
		Wasted:     st.PrefetchHits,
	}
}

// EvaluateProfile is the convenience path: build the plan from the profile
// and evaluate against the original layout.
func EvaluateProfile(recs []profiler.Record, o *omc.OMC, p *leap.Profile, cfg cachesim.Config) (Plan, Result) {
	plan := BuildPlan(p, int64(cfg.LineBytes), DefaultLookahead)
	resolve := layout.OriginalResolver(o)
	return plan, Evaluate(recs, resolve, plan, cfg)
}
