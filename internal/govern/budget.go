package govern

import "sync/atomic"

// Budget is an accounted memory budget. Structures report footprint deltas
// into it with Add; Over reports whether the high watermark has been
// reached. Budgets form a tree: a child created with Sub propagates every
// Add to its parent, so a server can give each session its own limit while
// a global budget watches the sum.
//
// All methods are safe for concurrent use — sessions account on their own
// goroutines while the server reads the global watermark.
//
// The trip point is a high watermark below the limit (limit minus one
// eighth), so the margin absorbs the footprint growth of the event being
// processed when the trip fires and the accounted peak never exceeds the
// limit itself.
type Budget struct {
	parent *Budget
	limit  int64
	used   atomic.Int64
	peak   atomic.Int64
}

// NewBudget creates a budget with the given limit in bytes. A limit of 0
// accounts usage but never trips.
func NewBudget(limit int64) *Budget {
	return &Budget{limit: limit}
}

// Sub creates a child budget with its own limit (0 = none). Usage added to
// the child also counts against this budget and all its ancestors.
func (b *Budget) Sub(limit int64) *Budget {
	return &Budget{parent: b, limit: limit}
}

// Add reports a footprint delta (positive or negative), propagating to
// ancestors.
func (b *Budget) Add(n int64) {
	for p := b; p != nil; p = p.parent {
		u := p.used.Add(n)
		for {
			pk := p.peak.Load()
			if u <= pk || p.peak.CompareAndSwap(pk, u) {
				break
			}
		}
	}
}

// Used reports the bytes currently accounted against this budget.
func (b *Budget) Used() int64 { return b.used.Load() }

// Peak reports the highest value Used has reached.
func (b *Budget) Peak() int64 { return b.peak.Load() }

// EffectiveLimit reports the tightest nonzero limit on this budget or any
// ancestor (0 = fully unlimited). A child created with Sub(0) is governed
// by its parent's limit; this is the number reports should show.
func (b *Budget) EffectiveLimit() int64 {
	limit := int64(0)
	for p := b; p != nil; p = p.parent {
		if p.limit > 0 && (limit == 0 || p.limit < limit) {
			limit = p.limit
		}
	}
	return limit
}

// Watermark reports the trip threshold: the limit minus a one-eighth
// safety margin (0 when unlimited).
func (b *Budget) Watermark() int64 {
	if b.limit <= 0 {
		return 0
	}
	return b.limit - b.limit/8
}

// Over reports whether this budget — or any ancestor — has reached its
// high watermark.
func (b *Budget) Over() bool {
	for p := b; p != nil; p = p.parent {
		if p.limit > 0 && p.used.Load() >= p.Watermark() {
			return true
		}
	}
	return false
}

// WouldOver reports whether adding n bytes would put this budget — or
// any ancestor — at its high watermark, without mutating anything (in
// particular, without recording a peak). The ladder uses it to decide
// whether a fixed-footprint rung can be entered at all.
func (b *Budget) WouldOver(n int64) bool {
	for p := b; p != nil; p = p.parent {
		if p.limit > 0 && p.used.Load()+n >= p.Watermark() {
			return true
		}
	}
	return false
}

// Heaviest picks which of several accounted parties should shed load
// first: the one with the largest usage, ties broken toward the smallest
// index. It is the one shedding order shared by a server choosing among
// its sessions and a cluster choosing among its shards, so "who degrades"
// is a deterministic property of the accounted state at every tier, never
// of goroutine or shard timing. It returns -1 for an empty slice.
func Heaviest(used []int64) int {
	best := -1
	for i, u := range used {
		if best < 0 || u > used[best] {
			best = i
		}
	}
	return best
}
