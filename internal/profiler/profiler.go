// Package profiler implements the paper's object-relative memory profiling
// framework (§2.3, Figure 4).
//
// The framework has three parts:
//
//   - the probes, which are the trace.Event stream produced by the
//     instrumented program (package memsim here);
//   - the Control and Decomposition Component (CDC), the hub that receives
//     instruction-probe events, queries the OMC to make them object-relative,
//     and forwards the translated 5-tuples;
//   - the Separation and Compression Component (SCC), which separates the
//     object-relative stream into substreams and compresses them. WHOMP and
//     LEAP are the two SCC implementations in this repository.
//
// The CDC is sequential by nature (each translation depends on the
// allocation history), but the SCC side parallelizes: the Sharded and
// Broadcast stages in this package fan the translated record stream out
// across worker goroutines with batched channels, deterministically — see
// docs/ARCHITECTURE.md for the pipeline's concurrency design.
//
// # Concurrency and buffer ownership
//
// Every SCC (and every trace.Sink) is fed by exactly one goroutine; the
// fan-out stages are that contract's multiplexers, not an exception to
// it — Consume on a Sharded/Broadcast stage must itself come from a
// single goroutine, and each worker lane is the single feeder of its
// downstream SCC. Record batches handed across lanes are pooled and
// reference-counted (see shard.go): the producer owns a batch while
// filling it, lanes borrow it read-only, and the last lane to release
// it recycles it. Steady-state fan-out therefore performs no per-batch
// allocation; docs/PERFORMANCE.md documents the ownership rules and the
// CI gate that enforces the zero-alloc event loop.
package profiler

import (
	"fmt"

	"ormprof/internal/omc"
	"ormprof/internal/trace"
)

// Record is the object-relative form of one executed memory access: the
// paper's 5-tuple (instruction-id, group, object, offset, time-stamp),
// extended with the access kind and width, which the dependence
// post-processor needs.
type Record struct {
	Instr trace.InstrID
	Ref   omc.Ref
	Time  trace.Time
	Store bool
	Size  uint32
}

// String renders the record in the paper's tuple notation.
func (r Record) String() string {
	op := "ld"
	if r.Store {
		op = "st"
	}
	return fmt.Sprintf("(%s%d, %d, %d, %d, t%d)", op, r.Instr, r.Ref.Group, r.Ref.Object, r.Ref.Offset, r.Time)
}

// SCC is the separation-and-compression component: it consumes the
// object-relative stream and builds a profile. Finish is called once, after
// the last record.
type SCC interface {
	Consume(Record)
	Finish()
}

// SCCFunc adapts a function to the SCC interface (Finish is a no-op).
type SCCFunc func(Record)

// Consume calls f(r).
func (f SCCFunc) Consume(r Record) { f(r) }

// Finish implements SCC.
func (SCCFunc) Finish() {}

// CDC is the control-and-decomposition component. It is a trace.Sink: object
// probes update the OMC, instruction probes are translated and forwarded to
// the SCC.
type CDC struct {
	OMC *omc.OMC
	Out SCC

	records uint64
}

// NewCDC wires a CDC to an OMC and an SCC.
func NewCDC(o *omc.OMC, out SCC) *CDC {
	return &CDC{OMC: o, Out: out}
}

// Emit implements trace.Sink.
func (c *CDC) Emit(e trace.Event) {
	switch e.Kind {
	case trace.EvAlloc, trace.EvFree:
		c.OMC.HandleEvent(e)
	case trace.EvAccess:
		ref := c.OMC.Translate(e.Addr)
		c.records++
		c.Out.Consume(Record{
			Instr: e.Instr,
			Ref:   ref,
			Time:  e.Time,
			Store: e.Store,
			Size:  e.Size,
		})
	}
}

// Finish finalizes the downstream SCC.
func (c *CDC) Finish() { c.Out.Finish() }

// Footprint reports the pipeline's approximate live bytes: the OMC's plus
// Out's where Out accounts. The parallel SCCs do not account (governed
// runs are sequential), so they contribute zero.
func (c *CDC) Footprint() int64 { return c.OMC.Footprint() + footprint(c.Out) }

// footprint is s's Footprint, or zero for an SCC that does not account.
func footprint(s SCC) int64 {
	if f, ok := s.(interface{ Footprint() int64 }); ok {
		return f.Footprint()
	}
	return 0
}

// Records reports how many access events were translated.
func (c *CDC) Records() uint64 { return c.records }

// Fanout hands the object-relative record stream to several SCCs in
// order, so one OMC translation per access serves every profiling module
// (the daemon's WHOMP and LEAP, the optimize pass's collector and layout
// planner).
type Fanout []SCC

// Consume implements SCC.
func (f Fanout) Consume(r Record) {
	for _, s := range f {
		s.Consume(r)
	}
}

// Finish implements SCC.
func (f Fanout) Finish() {
	for _, s := range f {
		s.Finish()
	}
}

// Footprint sums the footprints of the SCCs that account.
func (f Fanout) Footprint() int64 {
	var n int64
	for _, s := range f {
		n += footprint(s)
	}
	return n
}

// Collector is an SCC that simply buffers the object-relative stream, used
// by tests, examples, and as the input stage for offline decomposition.
type Collector struct {
	Records []Record
}

// Consume implements SCC.
func (c *Collector) Consume(r Record) { c.Records = append(c.Records, r) }

// Finish implements SCC.
func (c *Collector) Finish() {}

// TranslateTrace replays a recorded event trace through a fresh OMC and
// returns the object-relative stream and the OMC (whose object table holds
// the auxiliary lifetime information). siteNames may be nil.
func TranslateTrace(events []trace.Event, siteNames map[trace.SiteID]string) ([]Record, *omc.OMC) {
	o := omc.New(siteNames)
	col := &Collector{}
	cdc := NewCDC(o, col)
	for _, e := range events {
		cdc.Emit(e)
	}
	cdc.Finish()
	return col.Records, o
}
