// Package leap implements LEAP, the paper's Loss-Enhanced Access Profiler
// (§4).
//
// LEAP decomposes the object-relative stream vertically by instruction ID
// and then by group, producing one (object, offset, time) point stream per
// (instruction, group) pair, and compresses each stream with the LMAD linear
// compressor under a fixed LMAD budget (30 in the paper). Streams that
// exceed the budget degrade to summary information, making the profile
// lossy; the captured fraction is tracked as sample quality.
//
// Two post-processors consume LEAP profiles: memory dependence frequency
// (package depend) and stride patterns (package stride).
//
// Because streams are keyed by (instruction, group), compression shards
// cleanly by instruction: NewParallel fans the record stream out across
// workers and merges the disjoint shard profiles, producing a profile
// identical to the sequential one (see ParallelSCC and
// docs/ARCHITECTURE.md).
package leap

import (
	"ormprof/internal/decomp"
	"ormprof/internal/lmad"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

// StreamKey identifies one vertically decomposed stream: the paper's
// (instruction-id, group) pair.
type StreamKey = decomp.InstrGroupKey

// Stream is the compressed profile of one (instruction, group) pair.
//
// Each stream is compressed twice, following §4.1's hybrid of vertical and
// horizontal decomposition: the full 3-dimensional (object, offset, time)
// points feed the LMADs used by the dependence post-processor (which needs
// the time ordering), and the horizontally decomposed 2-dimensional
// (object, offset) points feed the LMADs used for stride detection and the
// Table 1 sample-quality metric, which the paper defines "at the level of
// offsets inside objects (not including the timing information)".
type Stream struct {
	Key   StreamKey
	Store bool // whether the instruction is a store

	// LMADs are the timed descriptors (object, offset, time).
	LMADs      []lmad.LMAD
	Overflowed bool
	Summary    lmad.Summary

	// OffsetLMADs are the untimed repeat-aware descriptors
	// (object, offset).
	OffsetLMADs      []lmad.RepLMAD
	OffsetOverflowed bool
	OffsetCaptured   uint64 // points captured by the untimed descriptors

	Offered  uint64 // points seen
	Captured uint64 // points captured by the timed descriptors
}

// Point dimensions within a LEAP LMAD. The untimed descriptors use the
// first two dimensions only.
const (
	DimObject = 0
	DimOffset = 1
	DimTime   = 2
	NumDims   = 3
)

// Profile is a collected LEAP profile.
type Profile struct {
	Workload string
	Records  uint64 // total accesses profiled

	// Streams maps each (instruction, group) pair to its compressed
	// stream. Iterate with Keys for determinism.
	Streams map[StreamKey]*Stream

	// InstrExecs counts total executions per instruction (maintained even
	// for overflowed streams, so MDF denominators are exact).
	InstrExecs map[trace.InstrID]uint64

	// InstrStore records each instruction's kind.
	InstrStore map[trace.InstrID]bool
}

// Keys returns the stream keys in deterministic (instr, group) order.
func (p *Profile) Keys() []StreamKey { return decomp.SortedKeys(p.Streams) }

// Instrs returns the instruction IDs in ascending order.
func (p *Profile) Instrs() []trace.InstrID { return decomp.SortedInstrs(p.InstrExecs) }

// SCC is LEAP's separation-and-compression component: online vertical
// decomposition by (instruction, group) feeding per-stream LMAD compressors.
type SCC struct {
	maxLMADs    int
	compressors map[StreamKey]*streamState
	instrExecs  map[trace.InstrID]uint64
	instrStore  map[trace.InstrID]bool
	records     uint64
	foot        int64 // incremental byte estimate, see Footprint
}

// Approximate per-element live sizes for budget accounting.
const (
	sccBase        = 192
	sccStreamBytes = 96 // streamState + stream-map entry
	sccInstrBytes  = 56 // instrExecs + instrStore entries
)

// footprint is one stream's compressor contribution to the estimate.
func (c *streamState) footprint() int64 {
	return c.timed.Footprint() + c.untimed.Footprint()
}

// Footprint reports the SCC's approximate live bytes in O(1); the estimate
// is maintained incrementally in Consume.
func (s *SCC) Footprint() int64 { return sccBase + s.foot }

type streamState struct {
	timed   *lmad.Compressor       // (object, offset, time)
	untimed *lmad.RepeatCompressor // (object, offset)
	store   bool
}

// NewSCC returns a LEAP compression stage with the given per-stream LMAD
// budget (≤ 0 selects lmad.DefaultMax, the paper's 30).
func NewSCC(maxLMADs int) *SCC {
	return &SCC{
		maxLMADs:    maxLMADs,
		compressors: make(map[StreamKey]*streamState),
		instrExecs:  make(map[trace.InstrID]uint64),
		instrStore:  make(map[trace.InstrID]bool),
	}
}

// Consume implements profiler.SCC.
func (s *SCC) Consume(r profiler.Record) {
	s.records++
	if _, seen := s.instrExecs[r.Instr]; !seen {
		s.foot += sccInstrBytes
	}
	s.instrExecs[r.Instr]++
	s.instrStore[r.Instr] = r.Store
	k := StreamKey{Instr: r.Instr, Group: r.Ref.Group}
	c, ok := s.compressors[k]
	if !ok {
		c = &streamState{
			timed:   lmad.NewCompressor(NumDims, s.maxLMADs),
			untimed: lmad.NewRepeatCompressor(2, s.maxLMADs),
			store:   r.Store,
		}
		s.compressors[k] = c
		s.foot += sccStreamBytes + c.footprint()
	}
	var p [NumDims]int64
	p[DimObject] = int64(r.Ref.Object)
	p[DimOffset] = int64(r.Ref.Offset)
	p[DimTime] = int64(r.Time)
	pre := c.footprint()
	c.timed.Add(p[:])
	c.untimed.Add(p[:2])
	s.foot += c.footprint() - pre
}

// Finish implements profiler.SCC.
func (s *SCC) Finish() {}

// BuildProfile freezes the SCC into a Profile.
func (s *SCC) BuildProfile(workload string) *Profile {
	p := &Profile{
		Workload:   workload,
		Records:    s.records,
		Streams:    make(map[StreamKey]*Stream, len(s.compressors)),
		InstrExecs: s.instrExecs,
		InstrStore: s.instrStore,
	}
	for k, c := range s.compressors {
		p.Streams[k] = &Stream{
			Key:              k,
			Store:            c.store,
			LMADs:            c.timed.LMADs(),
			Overflowed:       c.timed.Overflowed(),
			Summary:          c.timed.Summary(),
			OffsetLMADs:      c.untimed.LMADs(),
			OffsetOverflowed: c.untimed.Overflowed(),
			OffsetCaptured:   c.untimed.Captured(),
			Offered:          c.timed.Offered(),
			Captured:         c.timed.Captured(),
		}
	}
	return p
}

// compressorSCC is the contract between the Profiler front end and a LEAP
// compression stage: the sequential SCC and the ParallelSCC both satisfy
// it and build identical profiles for the same input stream.
type compressorSCC interface {
	profiler.SCC
	BuildProfile(workload string) *Profile
}

// Profiler bundles the full LEAP pipeline: OMC + CDC + SCC. It is a
// trace.Sink.
type Profiler struct {
	scc compressorSCC
	cdc *profiler.CDC
}

// New creates a LEAP profiler with the given LMAD budget (≤ 0 for the
// paper's default of 30). siteNames may be nil.
func New(siteNames map[trace.SiteID]string, maxLMADs int) *Profiler {
	scc := NewSCC(maxLMADs)
	return &Profiler{scc: scc, cdc: profiler.NewCDC(omc.New(siteNames), scc)}
}

// NewParallel creates a LEAP profiler whose per-(instruction, group) stream
// compression fans out across the given number of workers, sharded by
// instruction ID. workers ≤ 0 selects runtime.GOMAXPROCS(0); workers == 1
// returns the plain sequential profiler. The resulting profile is identical
// to the sequential one regardless of worker count (asserted by
// TestParallelDeterminism).
func NewParallel(siteNames map[trace.SiteID]string, maxLMADs, workers int) *Profiler {
	workers = profiler.DefaultWorkers(workers)
	if workers <= 1 {
		return New(siteNames, maxLMADs)
	}
	scc := NewParallelSCC(maxLMADs, workers)
	return &Profiler{scc: scc, cdc: profiler.NewCDC(omc.New(siteNames), scc)}
}

// Emit implements trace.Sink.
func (p *Profiler) Emit(e trace.Event) { p.cdc.Emit(e) }

// Err reports the profiler's first pipeline fault: a *profiler.WorkerError
// if a compression worker panicked. Sequential profilers always report nil.
// Call after Profile for the final verdict.
func (p *Profiler) Err() error {
	if e, ok := p.scc.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// OMC exposes the profiler's object-management component.
func (p *Profiler) OMC() *omc.OMC { return p.cdc.OMC }

// Footprint reports the pipeline's approximate live bytes (see
// profiler.CDC.Footprint).
func (p *Profiler) Footprint() int64 { return p.cdc.Footprint() }

// Profile finalizes collection and returns the profile.
func (p *Profiler) Profile(workload string) *Profile {
	p.cdc.Finish()
	return p.scc.BuildProfile(workload)
}

// SampleQuality reports the Table 1 quality pair: the fraction of all memory
// accesses captured by LMADs at the level of offsets inside objects (not
// including the timing information, per §4.2.3), and the fraction of
// instructions whose behaviour was completely captured (no stream of theirs
// overflowed).
func (p *Profile) SampleQuality() (accessesPct, instrsPct float64) {
	var offered, captured uint64
	incomplete := make(map[trace.InstrID]bool)
	for _, s := range p.Streams {
		offered += s.Offered
		captured += s.OffsetCaptured
		if s.OffsetOverflowed {
			incomplete[s.Key.Instr] = true
		}
	}
	if offered > 0 {
		accessesPct = 100 * float64(captured) / float64(offered)
	} else {
		accessesPct = 100
	}
	total := len(p.InstrExecs)
	if total > 0 {
		instrsPct = 100 * float64(total-len(incomplete)) / float64(total)
	} else {
		instrsPct = 100
	}
	return accessesPct, instrsPct
}

// CompressionRatio reports the Table 1 ratio of the raw fixed-width access
// trace size to the serialized LEAP profile size.
func (p *Profile) CompressionRatio() float64 {
	enc := p.EncodedSize()
	if enc == 0 {
		return 0
	}
	return float64(trace.RawBytes(p.Records)) / float64(enc)
}

// TotalLMADs reports the number of LMADs across all streams.
func (p *Profile) TotalLMADs() int {
	n := 0
	for _, s := range p.Streams {
		n += len(s.LMADs)
	}
	return n
}
