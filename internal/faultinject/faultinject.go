// Package faultinject wraps the streaming pipeline's interfaces with
// deliberately broken implementations — the hostile-input half of the
// robustness test suite. Each wrapper injects exactly one fault class the
// fault-tolerant pipeline must survive:
//
//   - CorruptByte / Truncate damage the encoded byte stream, exercising
//     the lenient reader's checksum detection and frame resynchronization;
//   - FlipField, PanicAfter, ErrorAfter, and Stall damage the decoded
//     event stream, exercising salvage drains, panic containment, and
//     deadline enforcement;
//   - PanicSCC crashes a downstream compression stage, and CrashingLEAP
//     wires it into a parallel LEAP pipeline, exercising the fan-out
//     stages' worker containment.
//
// Everything here is deterministic: the same wrapper parameters produce
// the same fault at the same position, so a soak failure replays exactly.
package faultinject

import (
	"fmt"
	"io"
	"time"

	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

// CorruptByte returns a reader that delivers r's bytes with the byte at
// the given offset XORed with mask (mask 0 is promoted to 0xFF so the
// byte always actually changes).
func CorruptByte(r io.Reader, offset int64, mask byte) io.Reader {
	if mask == 0 {
		mask = 0xff
	}
	return &corruptReader{r: r, offset: offset, mask: mask}
}

type corruptReader struct {
	r      io.Reader
	offset int64
	mask   byte
	pos    int64
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 && c.offset >= c.pos && c.offset < c.pos+int64(n) {
		p[c.offset-c.pos] ^= c.mask
	}
	c.pos += int64(n)
	return n, err
}

// Truncate returns a reader that ends the stream (clean io.EOF) after n
// bytes — a partially written or torn trace file.
func Truncate(r io.Reader, n int64) io.Reader {
	return io.LimitReader(r, n)
}

// FlipField returns a source that delivers src's events with the Nth
// (0-based) event passed through mutate — bit rot that slipped past the
// encoding layer, or a buggy producer.
func FlipField(src trace.Source, n int64, mutate func(*trace.Event)) trace.Source {
	var i int64
	return trace.SourceFunc(func() (trace.Event, error) {
		e, err := src.Next()
		if err == nil {
			if i == n {
				mutate(&e)
			}
			i++
		}
		return e, err
	})
}

// PanicAfter returns a source that panics on the Nth (0-based) call to
// Next — a crashing producer inside the pipeline's own goroutine.
func PanicAfter(src trace.Source, n int64) trace.Source {
	var i int64
	return trace.SourceFunc(func() (trace.Event, error) {
		if i == n {
			panic(fmt.Sprintf("faultinject: injected panic at event %d", n))
		}
		i++
		return src.Next()
	})
}

// ErrorAfter returns a source that fails with err after delivering n
// events — a typed mid-stream failure.
func ErrorAfter(src trace.Source, n int64, err error) trace.Source {
	var i int64
	return trace.SourceFunc(func() (trace.Event, error) {
		if i >= n {
			return trace.Event{}, err
		}
		i++
		return src.Next()
	})
}

// Stall returns a source that blocks for d before delivering the Nth
// (0-based) event — a stalled producer. The stall is duration-bounded by
// construction: cooperative cancellation cannot preempt a blocked Next, so
// an unbounded stall is indistinguishable from a hang; what a deadline
// buys is that the pipeline notices the overrun at the next delivered
// event and stops there (see trace.DrainContext).
func Stall(src trace.Source, n int64, d time.Duration) trace.Source {
	var i int64
	return trace.SourceFunc(func() (trace.Event, error) {
		if i == n {
			time.Sleep(d)
		}
		i++
		return src.Next()
	})
}

// PanicSCC returns an SCC that consumes into next but panics on the Nth
// (0-based) record — a crashing compression worker.
func PanicSCC(next profiler.SCC, n uint64) profiler.SCC {
	return &panicSCC{next: next, n: n}
}

type panicSCC struct {
	next profiler.SCC
	n    uint64
	i    uint64
}

func (p *panicSCC) Consume(r profiler.Record) {
	if p.i == p.n {
		panic(fmt.Sprintf("faultinject: injected SCC panic at record %d", p.n))
	}
	p.i++
	p.next.Consume(r)
}

func (p *panicSCC) Finish() { p.next.Finish() }

// CrashingLEAP is a parallel LEAP pipeline — OMC, CDC, and a
// profiler.Sharded stage of leap SCCs, the assembly leap.NewParallel
// builds — whose worker 0 panics on its Nth record. Records are dealt
// round-robin, so worker 0 sees every workers-th record and any N below
// records/workers fires. It is a cliutil.Analysis whose profile is the
// number of records the stage routed.
type CrashingLEAP struct {
	cdc *profiler.CDC
	sh  *profiler.Sharded
}

// NewCrashingLEAP starts the pipeline's workers.
func NewCrashingLEAP(sites map[trace.SiteID]string, workers int, n uint64) *CrashingLEAP {
	var rr int
	sh := profiler.NewSharded(workers, 64, func(_ profiler.Record, w int) int {
		rr++
		return rr % w
	}, func(i int) profiler.SCC {
		if i == 0 {
			return PanicSCC(leap.NewSCC(0), n)
		}
		return leap.NewSCC(0)
	})
	return &CrashingLEAP{cdc: profiler.NewCDC(omc.New(sites), sh), sh: sh}
}

// Emit implements trace.Sink.
func (c *CrashingLEAP) Emit(e trace.Event) { c.cdc.Emit(e) }

// Footprint implements govern.Mode. The crashing pipeline is never run
// under a memory budget, so it accounts nothing.
func (c *CrashingLEAP) Footprint() int64 { return 0 }

// Profile joins the workers and reports how many records were routed.
func (c *CrashingLEAP) Profile(string) uint64 {
	c.cdc.Finish()
	return c.sh.Records()
}

// Err reports the stage's first fault: the injected *profiler.WorkerError.
func (c *CrashingLEAP) Err() error { return c.sh.Err() }
