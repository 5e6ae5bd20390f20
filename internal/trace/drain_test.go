package trace

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// failAfterSource yields n synthetic events, then fails with err (or io.EOF
// when err is nil).
type failAfterSource struct {
	n   int
	err error
	i   int
}

func (s *failAfterSource) Next() (Event, error) {
	if s.i >= s.n {
		if s.err != nil {
			return Event{}, s.err
		}
		return Event{}, io.EOF
	}
	s.i++
	return Event{Kind: EvAccess, Time: Time(s.i), Addr: Addr(s.i * 8), Size: 8}, nil
}

func TestDrainErrorPath(t *testing.T) {
	// Drain must return the events delivered before the failure alongside
	// the source's error, verbatim.
	sentinel := errors.New("disk on fire")
	var buf Buffer
	n, err := Drain(&failAfterSource{n: 7, err: sentinel}, &buf)
	if n != 7 || len(buf.Events) != 7 {
		t.Errorf("Drain delivered %d events (buffered %d), want 7", n, len(buf.Events))
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("Drain error = %v, want sentinel", err)
	}
}

func TestReadAllErrorPath(t *testing.T) {
	// ReadAll keeps the partial slice on error — callers that want salvage
	// semantics get the events delivered so far, not nil.
	sentinel := errors.New("bad frame")
	events, err := ReadAll(&failAfterSource{n: 3, err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Errorf("ReadAll error = %v, want sentinel", err)
	}
	if len(events) != 3 {
		t.Errorf("ReadAll returned %d events with error, want the 3 partial events", len(events))
	}
}

func TestDrainCleanEOF(t *testing.T) {
	var buf Buffer
	n, err := Drain(&failAfterSource{n: 5}, &buf)
	if n != 5 || err != nil {
		t.Errorf("Drain = (%d, %v), want (5, nil)", n, err)
	}
}

func TestDrainContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after the source has produced a few thousand events so at
	// least one poll boundary is crossed.
	src := &failAfterSource{n: 1 << 20}
	fired := false
	probe := SourceFunc(func() (Event, error) {
		if src.i > 3*ctxPollInterval && !fired {
			fired = true
			cancel()
		}
		return src.Next()
	})
	n, err := DrainContext(ctx, probe, Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DrainContext error = %v, want context.Canceled", err)
	}
	if n == 0 || n >= 1<<20 {
		t.Errorf("DrainContext delivered %d events, want partial delivery", n)
	}
}

func TestDrainContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// An endless source: only the deadline can stop the drain.
	endless := SourceFunc(func() (Event, error) {
		return Event{Kind: EvAccess, Size: 8}, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := DrainContext(ctx, endless, Discard)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("DrainContext error = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DrainContext did not stop at the deadline")
	}
}

func TestDrainContextPanicSource(t *testing.T) {
	boom := SourceFunc(func() (Event, error) {
		panic("source exploded")
	})
	n, err := DrainContext(context.Background(), boom, Discard)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("DrainContext error = %v, want *PanicError", err)
	}
	if pe.Value != "source exploded" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError.Stack missing stack trace")
	}
	if n != 0 {
		t.Errorf("n = %d, want 0", n)
	}
}

func TestDrainContextPanicSinkKeepsCount(t *testing.T) {
	// A sink that dies on the 6th event: the five delivered before the
	// panic must stay counted.
	var got int
	sink := SinkFunc(func(e Event) {
		got++
		if got == 6 {
			panic("sink exploded")
		}
	})
	n, err := DrainContext(context.Background(), &failAfterSource{n: 100}, sink)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("DrainContext error = %v, want *PanicError", err)
	}
	if n != 5 {
		t.Errorf("n = %d, want 5 events counted before the panic", n)
	}
}

func TestDrainContextCleanStream(t *testing.T) {
	n, err := DrainContext(context.Background(), &failAfterSource{n: 9}, Discard)
	if n != 9 || err != nil {
		t.Errorf("DrainContext = (%d, %v), want (9, nil)", n, err)
	}
}

func TestDrainContextPropagatesSourceError(t *testing.T) {
	sentinel := errors.New("typed corruption")
	n, err := DrainContext(context.Background(), &failAfterSource{n: 4, err: sentinel}, Discard)
	if n != 4 || !errors.Is(err, sentinel) {
		t.Errorf("DrainContext = (%d, %v), want (4, sentinel)", n, err)
	}
}

// TestDrainContextDeadlineAtEOF: a deadline that expires while the last
// few events are delivered — after the final poll boundary — still comes
// back as DeadlineExceeded, with every event counted.
func TestDrainContextDeadlineAtEOF(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &failAfterSource{n: 10}
	tail := SourceFunc(func() (Event, error) {
		if src.i == 5 {
			cancel()
		}
		return src.Next()
	})
	n, err := DrainContext(ctx, tail, Discard)
	if n != 10 || !errors.Is(err, context.Canceled) {
		t.Errorf("DrainContext = (%d, %v), want (10, context.Canceled)", n, err)
	}
}

// TestDrainContainsPanic: Drain is DrainContext without a deadline, so a
// panicking sink is contained there too.
func TestDrainContainsPanic(t *testing.T) {
	sink := SinkFunc(func(Event) { panic("sink exploded") })
	_, err := Drain(&failAfterSource{n: 3}, sink)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Drain error = %v, want *PanicError", err)
	}
}
