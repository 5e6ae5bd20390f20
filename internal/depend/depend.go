// Package depend implements memory dependence frequency (MDF) profiling —
// the paper's first LEAP application (§4.2.1) — together with the two
// baselines it is evaluated against:
//
//   - Ideal: a lossless raw-address profiler that records the dependence
//     information of all memory operations (the paper's ground truth, which
//     is "extremely slow and produces huge profiles");
//   - Connors: a re-implementation of the instruction-indexed windowed
//     dependence profiler of Connors' thesis, which searches for address
//     matches only within a bounded history window of recent stores.
//
// A (st, ld) instruction pair conflicts when an execution of st writes a
// location that an execution of ld later reads. The memory dependence
// frequency is
//
//	MDF(st, ld) = (# of ld executions that conflict with st) / (total # of ld executions)
package depend

import (
	"ormprof/internal/trace"
)

// Pair is a static (store instruction, load instruction) pair.
type Pair struct {
	St, Ld trace.InstrID
}

// Result is a dependence profile: per-pair conflict counts plus per-load
// execution totals, from which MDFs are computed.
type Result struct {
	// Conflicts counts, for each pair, the load executions that conflicted
	// with at least one earlier execution of the store instruction.
	Conflicts map[Pair]uint64
	// LoadExecs counts total executions per load instruction.
	LoadExecs map[trace.InstrID]uint64
}

// NewResult returns an empty result.
func NewResult() *Result {
	return &Result{
		Conflicts: make(map[Pair]uint64),
		LoadExecs: make(map[trace.InstrID]uint64),
	}
}

// MDF computes the dependence frequency for every conflicting pair, clamped
// to [0, 1].
func (r *Result) MDF() map[Pair]float64 {
	out := make(map[Pair]float64, len(r.Conflicts))
	for p, c := range r.Conflicts {
		execs := r.LoadExecs[p.Ld]
		if execs == 0 {
			continue
		}
		f := float64(c) / float64(execs)
		if f > 1 {
			f = 1
		}
		if f > 0 {
			out[p] = f
		}
	}
	return out
}

// Ideal is the lossless raw-address dependence profiler. For every address
// it remembers which store instructions have written it; every load
// execution then conflicts with each of those instructions. It is a
// trace.Sink.
type Ideal struct {
	res *Result
	// writers maps each address to the set of store instructions that have
	// written it so far.
	writers map[trace.Addr]map[trace.InstrID]struct{}
}

// NewIdeal returns an empty ideal profiler.
func NewIdeal() *Ideal {
	return &Ideal{
		res:     NewResult(),
		writers: make(map[trace.Addr]map[trace.InstrID]struct{}),
	}
}

// Emit implements trace.Sink.
func (i *Ideal) Emit(e trace.Event) {
	if e.Kind != trace.EvAccess {
		return
	}
	if e.Store {
		w := i.writers[e.Addr]
		if w == nil {
			w = make(map[trace.InstrID]struct{}, 1)
			i.writers[e.Addr] = w
		}
		w[e.Instr] = struct{}{}
		return
	}
	i.res.LoadExecs[e.Instr]++
	for st := range i.writers[e.Addr] {
		i.res.Conflicts[Pair{St: st, Ld: e.Instr}]++
	}
}

// Result returns the collected dependence profile.
func (i *Ideal) Result() *Result { return i.res }

// DefaultWindow is the Connors profiler's default store-history length,
// sized (as the paper did) so its running time is comparable to LEAP's.
const DefaultWindow = 1024

// Connors is the windowed raw-address dependence profiler: it records the
// last W stores and, for each load, reports conflicts only against store
// executions still inside the window. It never overestimates an MDF but
// misses dependences whose distance exceeds the window. It is a trace.Sink.
type Connors struct {
	res    *Result
	window int

	ring []struct {
		addr  trace.Addr
		instr trace.InstrID
	}
	head int
	full bool
	// inWindow counts, per address, the store instructions currently in
	// the window (multiset, so eviction is exact).
	inWindow map[trace.Addr]map[trace.InstrID]int
}

// NewConnors returns a windowed profiler with the given history length
// (≤ 0 selects DefaultWindow).
func NewConnors(window int) *Connors {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Connors{
		res:    NewResult(),
		window: window,
		ring: make([]struct {
			addr  trace.Addr
			instr trace.InstrID
		}, window),
		inWindow: make(map[trace.Addr]map[trace.InstrID]int),
	}
}

// Emit implements trace.Sink.
func (c *Connors) Emit(e trace.Event) {
	if e.Kind != trace.EvAccess {
		return
	}
	if e.Store {
		if c.full {
			old := c.ring[c.head]
			set := c.inWindow[old.addr]
			set[old.instr]--
			if set[old.instr] == 0 {
				delete(set, old.instr)
				if len(set) == 0 {
					delete(c.inWindow, old.addr)
				}
			}
		}
		c.ring[c.head] = struct {
			addr  trace.Addr
			instr trace.InstrID
		}{e.Addr, e.Instr}
		c.head++
		if c.head == c.window {
			c.head = 0
			c.full = true
		}
		set := c.inWindow[e.Addr]
		if set == nil {
			set = make(map[trace.InstrID]int, 1)
			c.inWindow[e.Addr] = set
		}
		set[e.Instr]++
		return
	}
	c.res.LoadExecs[e.Instr]++
	for st := range c.inWindow[e.Addr] {
		c.res.Conflicts[Pair{St: st, Ld: e.Instr}]++
	}
}

// Result returns the collected dependence profile.
func (c *Connors) Result() *Result { return c.res }
