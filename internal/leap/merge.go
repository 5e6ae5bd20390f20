package leap

import (
	"strings"

	"ormprof/internal/lmad"
	"ormprof/internal/trace"
)

// Merge combines LEAP profiles from multiple runs of the same program into
// one aggregate profile. This is only meaningful because the profiles are
// object-relative: stream keys are (static instruction, allocation-site
// group), which are identical across runs no matter how the allocator laid
// memory out — a raw-address profile from run A cannot be combined with one
// from run B at all (§1).
//
// The merged profile is intended for the aggregate consumers — stride
// detection (descriptor histograms add) and sample-quality accounting
// (counters add). Dependence analysis must not be run on a merged profile,
// because descriptors from different runs do not share a timeline.
func Merge(profiles ...*Profile) *Profile {
	out := &Profile{
		Streams:    make(map[StreamKey]*Stream),
		InstrExecs: make(map[trace.InstrID]uint64),
		InstrStore: make(map[trace.InstrID]bool),
	}
	var names []string
	for _, p := range profiles {
		if p == nil {
			continue
		}
		names = append(names, p.Workload)
		out.Records += p.Records
		for id, n := range p.InstrExecs {
			out.InstrExecs[id] += n
		}
		for id, st := range p.InstrStore {
			out.InstrStore[id] = st
		}
		for k, s := range p.Streams {
			dst := out.Streams[k]
			if dst == nil {
				dst = &Stream{Key: k, Store: s.Store}
				out.Streams[k] = dst
			}
			dst.LMADs = append(dst.LMADs, s.LMADs...)
			dst.OffsetLMADs = append(dst.OffsetLMADs, s.OffsetLMADs...)
			dst.Overflowed = dst.Overflowed || s.Overflowed
			dst.OffsetOverflowed = dst.OffsetOverflowed || s.OffsetOverflowed
			dst.Offered += s.Offered
			dst.Captured += s.Captured
			dst.OffsetCaptured += s.OffsetCaptured
			mergeSummary(&dst.Summary, &s.Summary)
		}
	}
	out.Workload = strings.Join(dedup(names), "+")
	return out
}

func dedup(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func mergeSummary(dst, src *lmad.Summary) {
	if src.Min == nil {
		return
	}
	if dst.Min == nil {
		dst.Min = append([]int64(nil), src.Min...)
		dst.Max = append([]int64(nil), src.Max...)
		dst.Granularity = append([]int64(nil), src.Granularity...)
		dst.Points = src.Points
		return
	}
	for d := range dst.Min {
		if src.Min[d] < dst.Min[d] {
			dst.Min[d] = src.Min[d]
		}
		if src.Max[d] > dst.Max[d] {
			dst.Max[d] = src.Max[d]
		}
		dst.Granularity[d] = gcd64(dst.Granularity[d], src.Granularity[d])
	}
	dst.Points += src.Points
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
