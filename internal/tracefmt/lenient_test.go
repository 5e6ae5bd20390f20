package tracefmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"ormprof/internal/trace"
)

// frameLoc records the byte extents of one v3 frame within an encoded trace.
type frameLoc struct {
	start      int // first byte of the sync marker
	payloadOff int // first byte of the payload (count varint)
	end        int // one past the last payload byte
}

// v3Frames walks the frames of an encoded v3 trace, returning their extents.
func v3Frames(t *testing.T, data []byte, headerLen int) []frameLoc {
	t.Helper()
	var frames []frameLoc
	off := headerLen
	for off < len(data) {
		if string(data[off:off+len(FrameMagic)]) != FrameMagic {
			t.Fatalf("no frame magic at offset %d", off)
		}
		pl, n := binary.Uvarint(data[off+len(FrameMagic):])
		if n <= 0 {
			t.Fatalf("bad frame length at offset %d", off)
		}
		payloadOff := off + len(FrameMagic) + n + 4
		end := payloadOff + int(pl)
		frames = append(frames, frameLoc{start: off, payloadOff: payloadOff, end: end})
		off = end
	}
	return frames
}

func headerLen(t *testing.T) int {
	t.Helper()
	return len(encode(t, nil))
}

// readAllLenient drains a lenient reader, returning the delivered events and
// the terminal error (io.EOF or *CorruptionError).
func readAllLenient(t *testing.T, data []byte) ([]trace.Event, Stats, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), WithLenient())
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	var events []trace.Event
	for {
		e, err := r.Next()
		if err != nil {
			// Terminal errors are sticky.
			if _, err2 := r.Next(); !errors.Is(err2, err) && err2 != err {
				t.Errorf("terminal error not sticky: %v then %v", err, err2)
			}
			return events, r.Stats(), err
		}
		events = append(events, e)
	}
}

// TestLenientSingleCorruptFrame is the acceptance gate for resync: a trace
// with one corrupted frame must lose exactly that frame's events and
// nothing else, with the loss accounted precisely in Stats.
func TestLenientSingleCorruptFrame(t *testing.T) {
	const n, batch = 300, 16
	events := randomEvents(n, 7)
	data := encode(t, events, WithBatch(batch))
	frames := v3Frames(t, data, headerLen(t))
	const victim = 5

	bad := bytes.Clone(data)
	bad[frames[victim].payloadOff+3] ^= 0xff

	got, stats, err := readAllLenient(t, bad)

	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("terminal error = %v, want *CorruptionError", err)
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("CorruptionError does not wrap ErrBadTrace: %v", err)
	}
	want := append(append([]trace.Event(nil), events[:victim*batch]...), events[(victim+1)*batch:]...)
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	totalFrames := int64((n + batch - 1) / batch)
	if stats.Frames != totalFrames-1 {
		t.Errorf("Frames = %d, want %d", stats.Frames, totalFrames-1)
	}
	if stats.Corruptions != 1 || stats.SkippedFrames != 1 {
		t.Errorf("Corruptions/SkippedFrames = %d/%d, want 1/1", stats.Corruptions, stats.SkippedFrames)
	}
	if stats.SkippedEvents != batch {
		t.Errorf("SkippedEvents = %d, want %d", stats.SkippedEvents, batch)
	}
	if wantBytes := int64(frames[victim].end - frames[victim].start); stats.SkippedBytes != wantBytes {
		t.Errorf("SkippedBytes = %d, want %d", stats.SkippedBytes, wantBytes)
	}
	if stats.Events != int64(len(want)) {
		t.Errorf("Events = %d, want %d", stats.Events, len(want))
	}
	if ce.Stats != stats {
		t.Errorf("CorruptionError.Stats = %+v, want %+v", ce.Stats, stats)
	}
}

// TestLenientCleanTrace: lenient mode on an undamaged trace behaves exactly
// like strict mode — all events, clean io.EOF, zero skip counters.
func TestLenientCleanTrace(t *testing.T) {
	events := randomEvents(100, 11)
	data := encode(t, events, WithBatch(8))
	got, stats, err := readAllLenient(t, data)
	if err != io.EOF {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if len(got) != len(events) || stats.Damaged() {
		t.Errorf("delivered %d/%d events, stats %+v", len(got), len(events), stats)
	}
}

// TestLenientTruncatedTail: cutting the trace mid-frame salvages every
// complete frame before the cut.
func TestLenientTruncatedTail(t *testing.T) {
	const n, batch = 128, 16
	events := randomEvents(n, 13)
	data := encode(t, events, WithBatch(batch))
	frames := v3Frames(t, data, headerLen(t))

	// Cut in the middle of the second-to-last frame's payload.
	f := frames[len(frames)-2]
	cut := (f.payloadOff + f.end) / 2
	got, stats, err := readAllLenient(t, data[:cut])

	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("terminal error = %v, want *CorruptionError", err)
	}
	wantEvents := (len(frames) - 2) * batch
	if len(got) != wantEvents {
		t.Fatalf("delivered %d events, want %d", len(got), wantEvents)
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	if stats.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", stats.Corruptions)
	}
	if stats.SkippedBytes != int64(cut-f.start) {
		t.Errorf("SkippedBytes = %d, want %d", stats.SkippedBytes, cut-f.start)
	}
}

// TestLenientGarbageBetweenFrames: junk injected between two frames is
// scanned over without losing a single event.
func TestLenientGarbageBetweenFrames(t *testing.T) {
	const n, batch = 64, 16
	events := randomEvents(n, 17)
	data := encode(t, events, WithBatch(batch))
	frames := v3Frames(t, data, headerLen(t))

	junk := []byte("\x00\x01garbage\xff\xfe not a frame \xf7OR")
	cut := frames[2].start
	bad := append(append(append([]byte(nil), data[:cut]...), junk...), data[cut:]...)

	got, stats, err := readAllLenient(t, bad)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("terminal error = %v, want *CorruptionError", err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d events, want all %d", len(got), n)
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	if stats.Corruptions != 1 || stats.SkippedEvents != 0 {
		t.Errorf("Corruptions/SkippedEvents = %d/%d, want 1/0", stats.Corruptions, stats.SkippedEvents)
	}
	if stats.SkippedBytes != int64(len(junk)) {
		t.Errorf("SkippedBytes = %d, want %d", stats.SkippedBytes, len(junk))
	}
}

// TestLenientMultipleCorruptFrames: damage in several places is skipped
// independently; the frames in between still deliver.
func TestLenientMultipleCorruptFrames(t *testing.T) {
	const n, batch = 320, 16
	events := randomEvents(n, 19)
	data := encode(t, events, WithBatch(batch))
	frames := v3Frames(t, data, headerLen(t))

	bad := bytes.Clone(data)
	victims := []int{2, 9, 15}
	for _, v := range victims {
		bad[frames[v].payloadOff+1] ^= 0x55
	}
	got, stats, err := readAllLenient(t, bad)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("terminal error = %v, want *CorruptionError", err)
	}
	if want := n - len(victims)*batch; len(got) != want {
		t.Fatalf("delivered %d events, want %d", len(got), want)
	}
	if stats.Corruptions != int64(len(victims)) || stats.SkippedFrames != int64(len(victims)) {
		t.Errorf("Corruptions/SkippedFrames = %d/%d, want %d/%d",
			stats.Corruptions, stats.SkippedFrames, len(victims), len(victims))
	}
	if stats.SkippedEvents != int64(len(victims)*batch) {
		t.Errorf("SkippedEvents = %d, want %d", stats.SkippedEvents, len(victims)*batch)
	}
}

// TestLenientHeaderDamageFatal: the header has no redundancy to salvage
// with — damage there is fatal in both modes.
func TestLenientHeaderDamageFatal(t *testing.T) {
	data := encode(t, randomEvents(10, 23))
	for _, off := range []int{0, len(Magic), len(Magic) + 1} {
		bad := bytes.Clone(data)
		bad[off] ^= 0xff
		if _, err := NewReader(bytes.NewReader(bad), WithLenient()); !errors.Is(err, ErrBadTrace) {
			t.Errorf("header corruption at %d: err = %v, want ErrBadTrace", off, err)
		}
	}
}

// TestStrictRejectsCorruptFrame: strict mode still fails fast on the same
// damage lenient mode survives, and stays damage-free in Stats.
func TestStrictRejectsCorruptFrame(t *testing.T) {
	events := randomEvents(64, 29)
	data := encode(t, events, WithBatch(16))
	frames := v3Frames(t, data, headerLen(t))

	bad := bytes.Clone(data)
	bad[frames[1].payloadOff] ^= 0xff
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err = trace.ReadAll(r)
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("strict error = %v, want ErrBadTrace", err)
	}
	var ce *CorruptionError
	if errors.As(err, &ce) {
		t.Errorf("strict mode returned *CorruptionError: %v", err)
	}
	if r.Stats().Damaged() {
		t.Errorf("strict stats report damage: %+v", r.Stats())
	}
	if r.Events() != 16 {
		t.Errorf("strict delivered %d events before failing, want 16", r.Events())
	}
}
