// Package decomp implements the paper's object-relative stream
// decompositions (§2.2).
//
// Horizontal decomposition splits the 5-tuple stream into its dimensions —
// one stream per tuple element — so that each dimension's (simpler, more
// regular) pattern can be compressed on its own. Vertical decomposition
// collects the tuples that share a value in one dimension (all accesses by
// one instruction, say) into substreams; the time-stamp dimension keeps
// every tuple uniquely identified so substreams can be recomposed.
//
// Vertical decomposition also defines the parallel pipeline's partitioning:
// Shard assigns records to workers by instruction so that every substream
// lands whole, and in order, on a single worker.
package decomp

import (
	"sort"

	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

// Dimension names one element of the object-relative tuple.
type Dimension int

// The tuple dimensions, in the paper's order.
const (
	DimInstr Dimension = iota
	DimGroup
	DimObject
	DimOffset
	DimTime
)

// String returns the dimension name.
func (d Dimension) String() string {
	switch d {
	case DimInstr:
		return "instr"
	case DimGroup:
		return "group"
	case DimObject:
		return "object"
	case DimOffset:
		return "offset"
	case DimTime:
		return "time"
	default:
		return "dim?"
	}
}

// Dims lists the four compressible dimensions (time is implicit in stream
// order after horizontal decomposition).
var Dims = []Dimension{DimInstr, DimGroup, DimObject, DimOffset}

// Value extracts dimension d of record r as a symbol.
func Value(r profiler.Record, d Dimension) uint64 {
	switch d {
	case DimInstr:
		return uint64(r.Instr)
	case DimGroup:
		return uint64(r.Ref.Group)
	case DimObject:
		return uint64(r.Ref.Object)
	case DimOffset:
		return r.Ref.Offset
	case DimTime:
		return uint64(r.Time)
	default:
		panic("decomp: unknown dimension")
	}
}

// Horizontal is the result of horizontal decomposition: one symbol stream
// per dimension, all of equal length, index-aligned (index = position in the
// original stream = relative time).
type Horizontal struct {
	Instr  []uint64
	Group  []uint64
	Object []uint64
	Offset []uint64
}

// Len reports the stream length.
func (h Horizontal) Len() int { return len(h.Instr) }

// Recompose zips the dimension streams back into tuples. Time stamps are
// positions; Store/Size are not part of the 5-tuple and come back zero.
// It witnesses that horizontal decomposition loses nothing.
func (h Horizontal) Recompose() []profiler.Record {
	recs := make([]profiler.Record, h.Len())
	for i := range recs {
		recs[i] = profiler.Record{
			Instr: trace.InstrID(h.Instr[i]),
			Ref: omc.Ref{
				Group:  omc.GroupID(h.Group[i]),
				Object: uint32(h.Object[i]),
				Offset: h.Offset[i],
			},
			Time: trace.Time(i),
		}
	}
	return recs
}

// Shard assigns a record to one of n vertical shards by instruction ID.
// All records of one instruction — and therefore of every
// (instruction, group) substream — map to the same shard, so a sharded
// consumer sees each vertically decomposed substream whole and in order.
// This is the shard function the parallel LEAP pipeline uses; the
// multiplicative hash spreads clustered instruction IDs evenly.
func Shard(r profiler.Record, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint32(r.Instr) * 0x9e3779b1) % uint32(n))
}

// InstrGroupKey keys vertical decomposition by instruction then group — the
// decomposition LEAP uses (§4.1: "decomposes the stream vertically by
// instruction id and then by group").
type InstrGroupKey struct {
	Instr trace.InstrID
	Group omc.GroupID
}

// SortedInstrs returns the instruction keys of a per-instruction map in
// ascending order, for deterministic iteration.
func SortedInstrs[T any](m map[trace.InstrID]T) []trace.InstrID {
	keys := make([]trace.InstrID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// SortedKeys returns the keys of a per-(instruction, group) map ordered by
// (instr, group), for deterministic iteration.
func SortedKeys[T any](m map[InstrGroupKey]T) []InstrGroupKey {
	keys := make([]InstrGroupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Instr != keys[j].Instr {
			return keys[i].Instr < keys[j].Instr
		}
		return keys[i].Group < keys[j].Group
	})
	return keys
}
