package trace

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
)

// Source is the pull side of the event contract: a stream of probe events
// delivered one at a time, in program order. Next returns io.EOF after the
// last event; any other error means the stream is broken (a corrupt trace
// file, for instance) and no further events will be delivered.
//
// Source is the streaming dual of Sink. Producers that materialize a trace
// expose it through SliceSource / Buffer.Source; producers that stream
// (tracefmt.Reader) hold only O(batch) events in memory, so a profiler
// driven from a Source never needs the whole trace resident.
type Source interface {
	Next() (Event, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() (Event, error)

// Next calls f.
func (f SourceFunc) Next() (Event, error) { return f() }

// Drain pulls every event from src into sink and reports how many events
// were delivered. It is the bridge between the pull (Source) and push
// (Sink) halves of the pipeline: every profiler in this repository is a
// Sink, so Drain is how a recorded trace — or any other stream — is fed
// through one. It is DrainContext without a deadline, so a panic in the
// source or the sink comes back as a *PanicError as well.
func Drain(src Source, sink Sink) (int, error) {
	return DrainContext(context.Background(), src, sink)
}

// PanicError is the typed error a drain returns when the source or the
// sink panicked mid-stream: the panic is contained, the stack is captured,
// and everything consumed before the crash is preserved.
type PanicError struct {
	// Value is the value the goroutine panicked with.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("trace: pipeline panicked: %v", e.Value)
}

// ctxPollInterval is how many events a drain delivers between cancellation
// checks. Checking per event would double the cost of the hot loop; a
// ~thousand-event granularity keeps cancellation latency in the
// microseconds at streaming rates.
const ctxPollInterval = 1024

// DrainContext is the one drain loop every pipeline runs on. It pulls
// events from src into sink until io.EOF, and reports how many were
// delivered; events already delivered stay delivered, so the count is
// accurate whichever way the loop ends:
//
//   - a source error is returned verbatim (a lenient tracefmt.Reader's
//     *tracefmt.CorruptionError, say);
//   - ctx is polled every ctxPollInterval events and at the end of the
//     stream, and once it is done the loop stops with ctx.Err()
//     (context.Canceled or context.DeadlineExceeded), so a pass that
//     overran its deadline says so even when the overrun fell in its last
//     few events;
//   - a panic in src.Next or sink.Emit is recovered into a *PanicError
//     instead of unwinding the caller, so the profile state accumulated in
//     sink up to that point can still be finalized and reported.
//
// Cancellation is cooperative: a source blocked inside Next cannot be
// preempted, so a stalled producer is noticed at the first poll after it
// resumes, not while it is blocked.
func DrainContext(ctx context.Context, src Source, sink Sink) (n int, err error) {
	// The count is a named return so that events delivered before a panic
	// stay counted after recovery.
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	for {
		if n%ctxPollInterval == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return n, cerr
			}
		}
		e, serr := src.Next()
		if serr == io.EOF {
			return n, ctx.Err()
		}
		if serr != nil {
			return n, serr
		}
		sink.Emit(e)
		n++
	}
}

// ReadAll collects the remaining events of src into a slice.
func ReadAll(src Source) ([]Event, error) {
	var buf Buffer
	_, err := Drain(src, &buf)
	return buf.Events, err
}

// SliceSource adapts a materialized event slice to the Source interface —
// the trivial (in-memory) event source the streaming consumers fall back
// to when the trace is already resident.
type SliceSource struct {
	events []Event
	i      int
}

// NewSliceSource returns a Source that yields events in order.
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next implements Source.
func (s *SliceSource) Next() (Event, error) {
	if s.i >= len(s.events) {
		return Event{}, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

// Reset rewinds the source to the first event.
func (s *SliceSource) Reset() { s.i = 0 }

// Source returns a fresh Source over the buffered events.
func (b *Buffer) Source() *SliceSource { return NewSliceSource(b.Events) }
