package whomp

import (
	"ormprof/internal/decomp"
	"ormprof/internal/profiler"
	"ormprof/internal/sequitur"
)

// ParallelSCC is the concurrent WHOMP compression stage: the four dimension
// grammars of the OMSG are data-independent (horizontal decomposition
// splits the tuple stream into four disjoint symbol streams), so each
// builds in its own goroutine. A broadcast stage fans the object-relative
// record stream out to the four grammar workers in batches; every worker
// extracts its own dimension's symbol from each record.
//
// Determinism: each grammar worker receives the full record stream in
// original order over a FIFO queue, so every grammar is built from exactly
// the symbol sequence the sequential SCC would feed it, and the resulting
// profile serializes byte-identically (asserted by TestParallelDeterminism).
//
// The degree of parallelism is the number of compressible dimensions
// (len(decomp.Dims) = 4) plus the producing CDC, regardless of any larger
// worker budget — there is no finer-grained split of a single Sequitur
// grammar, whose construction is inherently sequential in its input.
type ParallelSCC struct {
	bc       *profiler.Broadcast
	grammars map[decomp.Dimension]*sequitur.Grammar
}

// NewParallelSCC starts one grammar worker per decomposed dimension.
func NewParallelSCC() *ParallelSCC {
	grammars := make(map[decomp.Dimension]*sequitur.Grammar, len(decomp.Dims))
	sccs := make([]profiler.SCC, 0, len(decomp.Dims))
	for _, d := range decomp.Dims {
		d := d
		g := sequitur.New()
		grammars[d] = g
		sccs = append(sccs, profiler.SCCFunc(func(r profiler.Record) {
			g.Append(decomp.Value(r, d))
		}))
	}
	return &ParallelSCC{
		bc:       profiler.NewBroadcast(profiler.DefaultShardBatch, sccs...),
		grammars: grammars,
	}
}

// Consume implements profiler.SCC: the record is batched and broadcast to
// the dimension workers.
func (p *ParallelSCC) Consume(r profiler.Record) { p.bc.Consume(r) }

// Finish implements profiler.SCC: it flushes the broadcast stage and joins
// the grammar workers; afterwards the grammars are complete and safe to
// read.
func (p *ParallelSCC) Finish() { p.bc.Finish() }

// Grammars exposes the dimension grammars (read after Finish).
func (p *ParallelSCC) Grammars() map[decomp.Dimension]*sequitur.Grammar { return p.grammars }

// Records reports how many records the SCC has consumed.
func (p *ParallelSCC) Records() uint64 { return p.bc.Records() }

// Err reports the broadcast stage's first fault (nil after a clean run).
func (p *ParallelSCC) Err() error { return p.bc.Err() }
