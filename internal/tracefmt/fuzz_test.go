package tracefmt

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ormprof/internal/trace"
)

// FuzzReader throws arbitrary bytes at the trace decoder. The invariants:
// it never panics, never allocates unboundedly (the length caps fire before
// any allocation), never yields more events than the input could possibly
// hold, and every failure is an ErrBadTrace (or clean io.EOF).
func FuzzReader(f *testing.F) {
	// Seed with a valid trace...
	var buf bytes.Buffer
	w := NewWriter(&buf, WithName("seed"), WithBatch(4))
	w.NameSite(1, "site_one")
	for _, e := range randomEvents(32, 42) {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// ...its truncations and light corruptions...
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(Magic)+1])
	bad := bytes.Clone(valid)
	bad[len(Magic)] = 99 // wrong version
	f.Add(bad)
	// ...and shapes aimed at the length fields.
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), Version, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append([]byte(Magic), Version, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("header error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		// Each decoded event consumes at least one payload byte, so the
		// input length bounds the event count.
		max := int64(len(data)) + 1
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("decode error %v does not wrap ErrBadTrace", err)
				}
				break
			}
			if r.Events() > max {
				t.Fatalf("decoded %d events from %d input bytes", r.Events(), len(data))
			}
		}
	})
}

// FuzzReaderResync throws mutated traces at the lenient reader. The
// invariants: it never panics, never loops forever (every scan step either
// consumes input or ends the trace), never yields more events than the
// input could hold, terminates in exactly io.EOF or *CorruptionError, and
// its Stats stay consistent with what was actually delivered.
func FuzzReaderResync(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WithName("seed"), WithBatch(8))
	w.NameSite(1, "site_one")
	for _, e := range randomEvents(64, 42) {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Truncations, single-byte damage at various depths, and injected junk.
	f.Add(valid[:len(valid)*3/4])
	f.Add(valid[:len(valid)/2+3])
	for _, off := range []int{20, 40, len(valid) / 2, len(valid) - 10} {
		bad := bytes.Clone(valid)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	mid := len(valid) / 2
	f.Add(append(append(append([]byte(nil), valid[:mid]...), "JUNKJUNK"...), valid[mid:]...))
	// A legacy v2 version byte, on an intact and on a damaged body, is
	// rejected at the header.
	v2 := bytes.Clone(valid)
	v2[len(Magic)] = 2
	f.Add(v2)
	bad := bytes.Clone(v2)
	bad[len(bad)/2] ^= 0xff
	f.Add(bad)
	f.Add([]byte{})
	f.Add(append([]byte(Magic), Version, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), WithLenient())
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("header error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		max := int64(len(data)) + 1
		var n int64
		for {
			_, err := r.Next()
			if err == nil {
				n++
				if n > max {
					t.Fatalf("decoded %d events from %d input bytes", n, len(data))
				}
				continue
			}
			var ce *CorruptionError
			switch {
			case err == io.EOF:
				if r.Stats().Damaged() {
					t.Fatalf("clean io.EOF but stats report damage: %+v", r.Stats())
				}
			case errors.As(err, &ce):
				if !ce.Stats.Damaged() {
					t.Fatalf("CorruptionError with no recorded corruption: %+v", ce.Stats)
				}
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("CorruptionError does not wrap ErrBadTrace: %v", err)
				}
			default:
				t.Fatalf("lenient terminal error = %v, want io.EOF or *CorruptionError", err)
			}
			st := r.Stats()
			if st.Events != n {
				t.Fatalf("Stats.Events = %d, delivered %d", st.Events, n)
			}
			if st.Frames < 0 || st.Corruptions < 0 || st.SkippedFrames < 0 ||
				st.SkippedEvents < 0 || st.SkippedBytes < 0 {
				t.Fatalf("negative stats: %+v", st)
			}
			if st.SkippedBytes > int64(len(data)) {
				t.Fatalf("SkippedBytes %d exceeds input %d", st.SkippedBytes, len(data))
			}
			// Terminal errors are sticky.
			if _, err2 := r.Next(); err2 != err {
				t.Fatalf("terminal error not sticky: %v then %v", err, err2)
			}
			return
		}
	})
}

// FuzzRoundTrip checks the encoder/decoder pair from the other side:
// any sequence of well-formed events survives a round trip exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(16), uint16(100))
	f.Add(int64(99), uint8(1), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, batch uint8, n uint16) {
		events := randomEvents(int(n%2048), seed)
		var buf bytes.Buffer
		w := NewWriter(&buf, WithBatch(int(batch)%257))
		for _, e := range events {
			w.Emit(e)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
			}
		}
	})
}
