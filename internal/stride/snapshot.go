package stride

import (
	"fmt"
	"sort"

	"ormprof/internal/trace"
)

// This file implements exact Ideal-profiler snapshots for checkpoint/resume
// (internal/checkpoint). The lossless stride profiler's state is three
// per-instruction maps; the only care needed is deterministic ordering so
// equal profilers produce equal snapshots.

// StrideCount is one (stride, count) histogram bin.
type StrideCount struct {
	Stride int64
	Count  uint64
}

// InstrState is one instruction's stride-profiling state.
type InstrState struct {
	Instr   trace.InstrID
	Execs   uint64
	HasLast bool
	Last    trace.Addr
	Hist    []StrideCount // sorted by stride
}

// Snapshot is the complete mutable state of an Ideal profiler, sorted by
// instruction ID.
type Snapshot struct {
	Instrs []InstrState
}

// Snapshot captures the profiler's complete state; the result shares no
// memory with the live profiler.
func (p *Ideal) Snapshot() *Snapshot {
	ids := make([]trace.InstrID, 0, len(p.execs))
	for id := range p.execs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	snap := &Snapshot{Instrs: make([]InstrState, 0, len(ids))}
	for _, id := range ids {
		st := InstrState{Instr: id, Execs: p.execs[id]}
		if last, ok := p.last[id]; ok {
			st.HasLast = true
			st.Last = last
		}
		if h := p.hist[id]; h != nil {
			st.Hist = make([]StrideCount, 0, len(h))
			for s, c := range h {
				st.Hist = append(st.Hist, StrideCount{Stride: s, Count: c})
			}
			sort.Slice(st.Hist, func(i, j int) bool { return st.Hist[i].Stride < st.Hist[j].Stride })
		}
		snap.Instrs = append(snap.Instrs, st)
	}
	return snap
}

// FromSnapshot reconstructs an Ideal profiler that behaves identically to
// the snapshotted one for all future events.
func FromSnapshot(snap *Snapshot) (*Ideal, error) {
	if snap == nil {
		return nil, fmt.Errorf("stride: snapshot missing")
	}
	p := NewIdeal()
	for _, st := range snap.Instrs {
		if _, dup := p.execs[st.Instr]; dup {
			return nil, fmt.Errorf("stride: duplicate instruction %d in snapshot", st.Instr)
		}
		p.execs[st.Instr] = st.Execs
		if st.HasLast {
			p.last[st.Instr] = st.Last
		} else if len(st.Hist) > 0 {
			return nil, fmt.Errorf("stride: instruction %d has a histogram but no last address", st.Instr)
		}
		if len(st.Hist) > 0 {
			h := make(map[int64]uint64, len(st.Hist))
			for _, sc := range st.Hist {
				if _, dup := h[sc.Stride]; dup {
					return nil, fmt.Errorf("stride: instruction %d has duplicate histogram bin %d", st.Instr, sc.Stride)
				}
				h[sc.Stride] = sc.Count
			}
			p.hist[st.Instr] = h
			p.foot += idealHistBytes + int64(len(st.Hist))*idealBinBytes
		}
		p.foot += idealInstrBytes
	}
	return p, nil
}
