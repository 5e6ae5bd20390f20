// Package whomp implements WHOMP, the paper's lossless whole-stream memory
// profiler (§3).
//
// WHOMP translates the access trace into object-relative form, decomposes it
// horizontally along all four dimensions (instruction ID, group, object,
// offset), and feeds each dimension stream into its own Sequitur compressor.
// The result is the OMSG — the object-relative multi-dimensional Sequitur
// grammar — plus the OMC's object lifetime table, which together losslessly
// encode the entire trace. The package also provides the RASG baseline (the
// conventional raw-address Sequitur grammar) that Figure 5 compares against.
//
// The four dimension grammars are data-independent and can build
// concurrently: NewParallel runs one grammar worker per dimension behind a
// broadcast stage, producing a profile byte-identical to the sequential
// one (see ParallelSCC and docs/ARCHITECTURE.md).
package whomp

import (
	"ormprof/internal/decomp"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/sequitur"
	"ormprof/internal/trace"
)

// Profile is a collected WHOMP profile: one grammar per decomposed
// dimension plus the auxiliary object table.
type Profile struct {
	Workload string
	Records  uint64

	// Grammars holds the OMSG: dimension -> Sequitur grammar.
	Grammars map[decomp.Dimension]*sequitur.Grammar

	// Objects is the auxiliary (run- and allocator-dependent) object
	// lifetime table, kept separate from the invariant object-relative
	// grammars as §2.3 prescribes.
	Objects *ObjectTable
}

// SCC is WHOMP's separation-and-compression component: it horizontally
// decomposes the incoming object-relative stream and Sequitur-compresses
// each dimension online.
type SCC struct {
	grammars map[decomp.Dimension]*sequitur.Grammar
	records  uint64
}

// NewSCC returns an empty WHOMP compression stage.
func NewSCC() *SCC {
	g := make(map[decomp.Dimension]*sequitur.Grammar, len(decomp.Dims))
	for _, d := range decomp.Dims {
		g[d] = sequitur.New()
	}
	return &SCC{grammars: g}
}

// Consume implements profiler.SCC: one record appends one symbol to each
// dimension grammar.
func (s *SCC) Consume(r profiler.Record) {
	s.records++
	for _, d := range decomp.Dims {
		s.grammars[d].Append(decomp.Value(r, d))
	}
}

// Finish implements profiler.SCC.
func (s *SCC) Finish() {}

// Grammars exposes the dimension grammars (live; read after Finish).
func (s *SCC) Grammars() map[decomp.Dimension]*sequitur.Grammar { return s.grammars }

// Records reports how many records the SCC has consumed.
func (s *SCC) Records() uint64 { return s.records }

// grammarSCC is the contract between the Profiler front end and a WHOMP
// compression stage: the sequential SCC and the ParallelSCC both satisfy
// it and produce identical grammars for the same input stream.
type grammarSCC interface {
	profiler.SCC
	Grammars() map[decomp.Dimension]*sequitur.Grammar
	Records() uint64
}

// Profiler bundles the full WHOMP pipeline: OMC + CDC + SCC. It is a
// trace.Sink; feed it the probe event stream and call Profile when done.
type Profiler struct {
	scc grammarSCC
	cdc *profiler.CDC
}

// New creates a WHOMP profiler. siteNames optionally names allocation sites
// (static symbols); it may be nil.
func New(siteNames map[trace.SiteID]string) *Profiler {
	scc := NewSCC()
	return &Profiler{scc: scc, cdc: profiler.NewCDC(omc.New(siteNames), scc)}
}

// NewParallel creates a WHOMP profiler whose four dimension grammars build
// concurrently (one goroutine per dimension, fed by a broadcast stage).
// workers ≤ 0 selects runtime.GOMAXPROCS(0); workers == 1 returns the plain
// sequential profiler. The resulting profile is byte-identical to the
// sequential one — each grammar consumes the same symbol stream in the same
// order either way.
func NewParallel(siteNames map[trace.SiteID]string, workers int) *Profiler {
	if profiler.DefaultWorkers(workers) <= 1 {
		return New(siteNames)
	}
	scc := NewParallelSCC()
	return &Profiler{scc: scc, cdc: profiler.NewCDC(omc.New(siteNames), scc)}
}

// Emit implements trace.Sink.
func (p *Profiler) Emit(e trace.Event) { p.cdc.Emit(e) }

// Footprint reports the pipeline's approximate live bytes (see
// profiler.CDC.Footprint).
func (p *Profiler) Footprint() int64 { return p.cdc.Footprint() }

// Err reports the profiler's first pipeline fault: a *profiler.WorkerError
// if a grammar worker panicked. Sequential profilers always report nil.
// Call after Profile for the final verdict.
func (p *Profiler) Err() error {
	if e, ok := p.scc.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// OMC exposes the profiler's object-management component.
func (p *Profiler) OMC() *omc.OMC { return p.cdc.OMC }

// Profile finalizes collection and returns the profile. For a parallel
// profiler this joins the grammar workers first, so the returned profile is
// complete and safe to read.
func (p *Profiler) Profile(workload string) *Profile {
	p.cdc.Finish()
	return &Profile{
		Workload: workload,
		Records:  p.scc.Records(),
		Grammars: p.scc.Grammars(),
		Objects:  FromOMC(p.cdc.OMC),
	}
}

// Symbols reports the OMSG size in total grammar symbols (the sum over the
// four dimension grammars), the grammar-size metric used for the Figure 5
// comparison.
func (p *Profile) Symbols() int {
	n := 0
	for _, g := range p.Grammars {
		n += g.Symbols()
	}
	return n
}

// EncodedBytes reports the OMSG size in serialized bytes (grammars only,
// excluding the object table, which RASG does not carry either).
func (p *Profile) EncodedBytes() int {
	n := 0
	for _, g := range p.Grammars {
		n += g.EncodedSize()
	}
	return n
}

// ReconstructTuples expands the four grammars and zips them back into the
// object-relative record stream (with time stamps equal to positions).
func (p *Profile) ReconstructTuples() []profiler.Record {
	h := decomp.Horizontal{
		Instr:  p.Grammars[decomp.DimInstr].Expand(),
		Group:  p.Grammars[decomp.DimGroup].Expand(),
		Object: p.Grammars[decomp.DimObject].Expand(),
		Offset: p.Grammars[decomp.DimOffset].Expand(),
	}
	return h.Recompose()
}

// ReconstructAccesses regenerates the original (instruction, raw address)
// access trace from the profile — the losslessness witness: OMSG + object
// table carry everything the raw trace did.
func (p *Profile) ReconstructAccesses() ([]trace.InstrID, []trace.Addr, error) {
	recs := p.ReconstructTuples()
	instrs := make([]trace.InstrID, len(recs))
	addrs := make([]trace.Addr, len(recs))
	for i, r := range recs {
		a, err := p.Objects.Invert(r.Ref)
		if err != nil {
			return nil, nil, err
		}
		instrs[i] = r.Instr
		addrs[i] = a
	}
	return instrs, addrs, nil
}

// RASG is the conventional raw-address Sequitur profile used as the Figure 5
// baseline: one grammar over the instruction stream and one over the raw
// address stream (the same information content as the OMSG grammars, minus
// object-relativity).
type RASG struct {
	Instr *sequitur.Grammar
	Addr  *sequitur.Grammar

	records uint64
}

// NewRASG returns an empty raw-address profiler.
func NewRASG() *RASG {
	return &RASG{Instr: sequitur.New(), Addr: sequitur.New()}
}

// Emit implements trace.Sink; object probes are ignored (a raw-address
// profiler has no use for them).
func (r *RASG) Emit(e trace.Event) {
	if e.Kind != trace.EvAccess {
		return
	}
	r.records++
	r.Instr.Append(uint64(e.Instr))
	r.Addr.Append(uint64(e.Addr))
}

// Records reports the number of accesses compressed.
func (r *RASG) Records() uint64 { return r.records }

// Symbols reports the RASG size in total grammar symbols.
func (r *RASG) Symbols() int { return r.Instr.Symbols() + r.Addr.Symbols() }

// EncodedBytes reports the RASG size in serialized bytes.
func (r *RASG) EncodedBytes() int { return r.Instr.EncodedSize() + r.Addr.EncodedSize() }

// Reconstruct regenerates the access trace from the RASG.
func (r *RASG) Reconstruct() ([]trace.InstrID, []trace.Addr) {
	is := r.Instr.Expand()
	as := r.Addr.Expand()
	instrs := make([]trace.InstrID, len(is))
	addrs := make([]trace.Addr, len(as))
	for i := range is {
		instrs[i] = trace.InstrID(is[i])
	}
	for i := range as {
		addrs[i] = trace.Addr(as[i])
	}
	return instrs, addrs
}

// CompressionGain reports Figure 5's metric: the percentage by which the
// OMSG is smaller than the RASG, using RASG size as the base. Size is the
// serialized profile size in bytes — the quantity that matters for a
// profile written to disk, and the one in which object-relativity pays off
// twice: the decomposed streams build smaller grammars *and* their symbols
// (small group/serial/offset integers) encode in fewer bytes than raw
// 47-bit addresses.
func CompressionGain(omsg *Profile, rasg *RASG) float64 {
	rs := rasg.EncodedBytes()
	if rs == 0 {
		return 0
	}
	return 100 * (1 - float64(omsg.EncodedBytes())/float64(rs))
}
