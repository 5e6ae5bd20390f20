// Package trace defines the event model shared by the simulated machine and
// the profilers: memory access events produced by instruction probes and
// object lifetime events produced by object probes.
//
// The event stream is the contract between the instrumentation front end
// (package memsim in this repository, IA-64 assembly probes in the paper) and
// the profiling framework. Everything above this package is independent of
// how the events were produced.
//
// # Concurrency and buffer ownership
//
// A Sink is fed by exactly one goroutine at a time: Emit calls are never
// concurrent, and an Event is owned by the callee only for the duration
// of the call (it is a value type — retain copies, not aliases). Sources
// are likewise single-consumer. Components that cross goroutines (the
// async collector, the fan-out stages in internal/profiler) batch events
// into pooled buffers whose ownership transfers with the channel send;
// a consumer must not touch a batch after returning it to its pool. The
// profiling event loop is zero-allocation at steady state under these
// rules — see docs/PERFORMANCE.md.
package trace

import "fmt"

// Addr is a virtual address in the simulated address space.
type Addr uint64

// InstrID identifies a static load or store instruction in the profiled
// program. IDs are assigned by the program being profiled and are stable
// across runs, like a PC in the paper's assembly-level instrumentation.
type InstrID uint32

// SiteID identifies a static allocation site. Objects allocated at the same
// site belong to the same group (paper §3.1: "the profiler groups allocated
// dynamic objects by static instruction").
type SiteID uint32

// Time is the logical time stamp: a counter starting at 0 and incremented
// after every collected access (paper §2.2).
type Time uint64

// EventKind discriminates the probe that produced an event.
type EventKind uint8

const (
	// EvAccess is an instruction-probe event: one executed load or store.
	EvAccess EventKind = iota
	// EvAlloc is an object-probe event: an object came into existence
	// (heap allocation, or static object registration at program start).
	EvAlloc
	// EvFree is an object-probe event: an object was destroyed.
	EvFree
)

// String returns the probe name.
func (k EventKind) String() string {
	switch k {
	case EvAccess:
		return "access"
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is a single probe record. Access events populate Instr, Addr, Size
// and Store; alloc events populate Site, Addr and Size; free events populate
// Addr only. Time is set on every event.
type Event struct {
	Kind  EventKind
	Time  Time
	Instr InstrID // access: the static load/store instruction
	Site  SiteID  // alloc: the static allocation site
	Addr  Addr    // address accessed, or object start address
	Size  uint32  // access width or object size in bytes
	Store bool    // access: true for stores, false for loads
}

// String renders the event for debugging output.
func (e Event) String() string {
	switch e.Kind {
	case EvAccess:
		op := "ld"
		if e.Store {
			op = "st"
		}
		return fmt.Sprintf("t%d %s i%d [%#x,%d]", e.Time, op, e.Instr, uint64(e.Addr), e.Size)
	case EvAlloc:
		return fmt.Sprintf("t%d alloc s%d [%#x,%d]", e.Time, e.Site, uint64(e.Addr), e.Size)
	case EvFree:
		return fmt.Sprintf("t%d free [%#x]", e.Time, uint64(e.Addr))
	default:
		return fmt.Sprintf("t%d ?kind=%d", e.Time, e.Kind)
	}
}

// Sink consumes probe events in program order. Implementations must not
// retain the Event beyond the call (it may be reused by the producer).
// A Sink is fed by a single goroutine; pipeline parallelism happens
// behind a Sink (the profiler.Sharded/Broadcast stages fan out downstream
// of translation), never in front of one — event order is the time
// dimension.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f(e).
func (f SinkFunc) Emit(e Event) { f(e) }

// SiteNamer is implemented by sinks that want the static allocation-site
// name table before events start flowing — trace writers persist it so a
// replayed trace reconstructs the same symbolic group names as a live run.
// The instrumentation front end (memsim.Machine.Start) announces every
// static site to its sink via NameSite, once, before the first event.
type SiteNamer interface {
	NameSite(site SiteID, name string)
}

type teeSink struct{ sinks []Sink }

// Emit implements Sink.
func (t teeSink) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// NameSite implements SiteNamer, forwarding to every child that cares.
func (t teeSink) NameSite(site SiteID, name string) {
	for _, s := range t.sinks {
		if n, ok := s.(SiteNamer); ok {
			n.NameSite(site, name)
		}
	}
}

// Tee fans one event stream out to several sinks, in order. The returned
// sink forwards site names (SiteNamer) to every child that implements it,
// so a trace writer can ride alongside a live profiler.
func Tee(sinks ...Sink) Sink {
	return teeSink{sinks: sinks}
}

// Discard is a Sink that drops every event. Useful for measuring native
// (uninstrumented) workload cost in dilation experiments.
var Discard Sink = SinkFunc(func(Event) {})

// Buffer is an in-memory trace: a Sink that records every event.
// The zero value is ready to use.
type Buffer struct {
	Events []Event
}

// Emit appends e to the buffer.
func (b *Buffer) Emit(e Event) { b.Events = append(b.Events, e) }

// Len reports the number of recorded events.
func (b *Buffer) Len() int { return len(b.Events) }

// Replay feeds every recorded event to sink, in order.
func (b *Buffer) Replay(sink Sink) {
	for _, e := range b.Events {
		sink.Emit(e)
	}
}

// Accesses returns only the access events of the trace.
func (b *Buffer) Accesses() []Event {
	out := make([]Event, 0, len(b.Events))
	for _, e := range b.Events {
		if e.Kind == EvAccess {
			out = append(out, e)
		}
	}
	return out
}

// Stats summarizes a trace.
type Stats struct {
	Accesses  uint64 // instruction-probe events
	Loads     uint64
	Stores    uint64
	Allocs    uint64 // object-probe alloc events
	Frees     uint64
	BytesLive uint64 // peak concurrently allocated bytes
	Instrs    int    // distinct static instructions observed
	Sites     int    // distinct allocation sites observed
}

// StatsBuilder accumulates Stats incrementally — it is a Sink, so summary
// statistics stream with O(live objects) memory instead of requiring the
// materialized trace. The zero value is ready to use.
type StatsBuilder struct {
	st        Stats
	instrs    map[InstrID]struct{}
	sites     map[SiteID]struct{}
	liveBytes uint64
	liveSize  map[Addr]uint32
}

// Emit implements Sink.
func (b *StatsBuilder) Emit(e Event) {
	switch e.Kind {
	case EvAccess:
		b.st.Accesses++
		if e.Store {
			b.st.Stores++
		} else {
			b.st.Loads++
		}
		if b.instrs == nil {
			b.instrs = make(map[InstrID]struct{})
		}
		b.instrs[e.Instr] = struct{}{}
	case EvAlloc:
		b.st.Allocs++
		if b.sites == nil {
			b.sites = make(map[SiteID]struct{})
			b.liveSize = make(map[Addr]uint32)
		}
		b.sites[e.Site] = struct{}{}
		b.liveBytes += uint64(e.Size)
		b.liveSize[e.Addr] = e.Size
		if b.liveBytes > b.st.BytesLive {
			b.st.BytesLive = b.liveBytes
		}
	case EvFree:
		b.st.Frees++
		if sz, ok := b.liveSize[e.Addr]; ok {
			b.liveBytes -= uint64(sz)
			delete(b.liveSize, e.Addr)
		}
	}
}

// Stats returns the statistics accumulated so far.
func (b *StatsBuilder) Stats() Stats {
	st := b.st
	st.Instrs = len(b.instrs)
	st.Sites = len(b.sites)
	return st
}

// Collect computes summary statistics over a recorded trace.
func Collect(events []Event) Stats {
	var b StatsBuilder
	for _, e := range events {
		b.Emit(e)
	}
	return b.Stats()
}

// RawBytes reports the size in bytes of the uncompressed access trace when
// stored as fixed-width (instruction-id, address) records — the "original
// data trace" against which the paper's Table 1 compression ratios are
// computed. Each record is 4 bytes of instruction ID plus 8 bytes of address.
func RawBytes(accesses uint64) uint64 { return accesses * 12 }
