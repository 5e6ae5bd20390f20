// Package stride implements memory stride profiling — the paper's second
// LEAP application (§4.2.2) — and the lossless reference profiler it is
// scored against.
//
// Following Wu (PLDI 2002), an instruction is (single) strongly strided when
// one stride accounts for at least 70 % of its accesses. The reference
// profiler tracks every stride between successive executions of each
// instruction (the paper's "extremely slow" lossless re-implementation);
// the LEAP post-processor instead examines the offset strides captured in
// the profile's LMADs, restricted to strides within a single object
// (identical group and object IDs), as §4.2.2 prescribes.
package stride

import (
	"sort"

	"ormprof/internal/leap"
	"ormprof/internal/trace"
)

// StrongThreshold is the strongly-strided cutoff: one stride must account
// for at least this fraction of an instruction's accesses.
const StrongThreshold = 0.70

// Info describes a strongly strided instruction: its dominant stride and
// the fraction of accesses that stride explains.
type Info struct {
	Stride int64
	Frac   float64
}

// Ideal is the lossless stride profiler: for every instruction it keeps the
// full histogram of strides between successive executions. It is a
// trace.Sink.
type Ideal struct {
	last  map[trace.InstrID]trace.Addr
	hist  map[trace.InstrID]map[int64]uint64
	execs map[trace.InstrID]uint64
	foot  int64 // incremental byte estimate, see Footprint
}

// Approximate per-element live sizes for budget accounting.
const (
	idealBase       = 192
	idealInstrBytes = 80 // last + execs + hist-pointer map entries
	idealHistBytes  = 96 // per-instruction histogram map header
	idealBinBytes   = 32 // one histogram bin
)

// Footprint reports the profiler's approximate live bytes in O(1); the
// estimate is maintained incrementally in Emit.
func (p *Ideal) Footprint() int64 { return idealBase + p.foot }

// NewIdeal returns an empty lossless stride profiler.
func NewIdeal() *Ideal {
	return &Ideal{
		last:  make(map[trace.InstrID]trace.Addr),
		hist:  make(map[trace.InstrID]map[int64]uint64),
		execs: make(map[trace.InstrID]uint64),
	}
}

// Emit implements trace.Sink.
func (p *Ideal) Emit(e trace.Event) {
	if e.Kind != trace.EvAccess {
		return
	}
	if _, seen := p.execs[e.Instr]; !seen {
		p.foot += idealInstrBytes
	}
	p.execs[e.Instr]++
	if prev, ok := p.last[e.Instr]; ok {
		d := int64(e.Addr) - int64(prev)
		h := p.hist[e.Instr]
		if h == nil {
			h = make(map[int64]uint64, 4)
			p.hist[e.Instr] = h
			p.foot += idealHistBytes
		}
		if _, seen := h[d]; !seen {
			p.foot += idealBinBytes
		}
		h[d]++
	}
	p.last[e.Instr] = e.Addr
}

// StronglyStrided returns every instruction whose dominant stride meets the
// threshold, with ties broken toward the smaller stride for determinism.
func (p *Ideal) StronglyStrided() map[trace.InstrID]Info {
	out := make(map[trace.InstrID]Info)
	for id, h := range p.hist {
		var total uint64
		for _, c := range h {
			total += c
		}
		if total < MinSample {
			continue
		}
		stride, count := dominant(h)
		frac := float64(count) / float64(total)
		if frac >= StrongThreshold {
			out[id] = Info{Stride: stride, Frac: frac}
		}
	}
	return out
}

// Execs returns per-instruction execution counts.
func (p *Ideal) Execs() map[trace.InstrID]uint64 { return p.execs }

func dominant(h map[int64]uint64) (stride int64, count uint64) {
	first := true
	for s, c := range h {
		if first || c > count || (c == count && s < stride) {
			stride, count = s, c
			first = false
		}
	}
	return stride, count
}

// MinSample is the minimum number of captured stride events needed before an
// instruction can be classified; tinier samples are statistically
// meaningless.
const MinSample = 4

// FromLEAP identifies strongly strided instructions from a LEAP profile: a
// trivial post-process that examines all offset strides captured for each
// instruction (§4.2.2), considering only strides within objects (LMADs
// whose object stride is zero). Because an overflowed stream's LMADs are a
// sample of its initial part (§4.1), strength is judged against the captured
// stride events rather than total executions — the sampled prefix stands in
// for the whole stream, which is exactly the "low sample quality may be
// acceptable" argument the paper makes.
func FromLEAP(p *leap.Profile) map[trace.InstrID]Info {
	hist := make(map[trace.InstrID]map[int64]uint64)
	events := make(map[trace.InstrID]uint64)
	accumulateLEAP(p, p.Keys(), hist, events)
	return classify(hist, events)
}

// accumulateLEAP folds the given streams' offset-LMAD stride evidence into
// the per-instruction histograms. It touches only the instructions that
// appear in keys, so disjoint key partitions accumulate into disjoint map
// entries — the property the parallel post-processor relies on.
func accumulateLEAP(p *leap.Profile, keys []leap.StreamKey, hist map[trace.InstrID]map[int64]uint64, events map[trace.InstrID]uint64) {
	for _, k := range keys {
		s := p.Streams[k]
		// The untimed (object, offset) descriptors carry the stride
		// information; time strides are irrelevant here.
		for i := range s.OffsetLMADs {
			l := &s.OffsetLMADs[i]
			if l.Count < 2 {
				continue
			}
			// A descriptor of count n re-walked r times witnesses
			// r·(n-1) in-pattern stride events plus r-1 restart jumps
			// (which count toward the total but are not candidates).
			inPattern := uint64(l.Count-1) * uint64(l.Reps)
			events[k.Instr] += inPattern + uint64(l.Reps-1)
			if l.Stride[leap.DimObject] != 0 {
				continue // cross-object stride: counted but not a candidate
			}
			h := hist[k.Instr]
			if h == nil {
				h = make(map[int64]uint64, 4)
				hist[k.Instr] = h
			}
			h[l.Stride[leap.DimOffset]] += inPattern
		}
	}
}

// classify applies the strongly-strided test to accumulated histograms.
func classify(hist map[trace.InstrID]map[int64]uint64, events map[trace.InstrID]uint64) map[trace.InstrID]Info {
	out := make(map[trace.InstrID]Info)
	for id, h := range hist {
		total := events[id]
		if total < MinSample {
			continue
		}
		stride, count := dominant(h)
		frac := float64(count) / float64(total)
		if frac >= StrongThreshold {
			out[id] = Info{Stride: stride, Frac: frac}
		}
	}
	return out
}

// Score computes Figure 9's metric: the percentage of the reference
// profiler's strongly strided instructions that the estimate also identifies
// (with the same dominant stride). A benchmark with no strongly strided
// instructions scores 100.
func Score(real, est map[trace.InstrID]Info) float64 {
	if len(real) == 0 {
		return 100
	}
	hit := 0
	for id, ri := range real {
		if ei, ok := est[id]; ok && ei.Stride == ri.Stride {
			hit++
		}
	}
	return 100 * float64(hit) / float64(len(real))
}

// SortedIDs returns the instruction IDs of an Info map in ascending order.
func SortedIDs(m map[trace.InstrID]Info) []trace.InstrID {
	ids := make([]trace.InstrID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
