package tracefmt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"ormprof/internal/trace"
)

// randomEvents builds a pseudo-random but well-formed event stream with
// monotonically increasing time stamps and a mix of all three kinds.
func randomEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	tm := trace.Time(0)
	for i := 0; i < n; i++ {
		tm += trace.Time(rng.Intn(3))
		switch rng.Intn(10) {
		case 0:
			events = append(events, trace.Event{
				Kind: trace.EvAlloc,
				Time: tm,
				Site: trace.SiteID(rng.Intn(50)),
				Addr: trace.Addr(rng.Uint64()),
				Size: uint32(rng.Intn(4096) + 1),
			})
		case 1:
			events = append(events, trace.Event{
				Kind: trace.EvFree,
				Time: tm,
				Addr: trace.Addr(rng.Uint64()),
			})
		default:
			events = append(events, trace.Event{
				Kind:  trace.EvAccess,
				Time:  tm,
				Instr: trace.InstrID(rng.Intn(200)),
				Addr:  trace.Addr(rng.Uint64()),
				Size:  uint32(1 << uint(rng.Intn(4))),
				Store: rng.Intn(3) == 0,
			})
		}
	}
	return events
}

// encode writes events through a Writer with the given options.
func encode(t *testing.T, events []trace.Event, opts ...WriterOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opts...)
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// decode reads every event back out.
func decode(t *testing.T, data []byte) (*Reader, []trace.Event) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	events, err := trace.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return r, events
}

func TestRoundTrip(t *testing.T) {
	for _, batch := range []int{1, 7, 64, DefaultBatch} {
		events := randomEvents(5000, 1)
		data := encode(t, events, WithBatch(batch))
		_, got := decode(t, data)
		if len(got) != len(events) {
			t.Fatalf("batch %d: decoded %d events, want %d", batch, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("batch %d: event %d = %+v, want %+v", batch, i, got[i], events[i])
			}
		}
	}
}

func TestRoundTripExtremeValues(t *testing.T) {
	// Wrap-around deltas: every 64-bit address and time must survive,
	// including maximal jumps in both directions.
	events := []trace.Event{
		{Kind: trace.EvAccess, Time: 0, Instr: 0, Addr: 0, Size: 0},
		{Kind: trace.EvAccess, Time: ^trace.Time(0), Instr: ^trace.InstrID(0), Addr: ^trace.Addr(0), Size: ^uint32(0), Store: true},
		{Kind: trace.EvAccess, Time: 1, Instr: 1, Addr: 1, Size: 1},
		{Kind: trace.EvAlloc, Time: 2, Site: ^trace.SiteID(0), Addr: 1 << 63, Size: ^uint32(0)},
		{Kind: trace.EvFree, Time: 3, Addr: 0},
		{Kind: trace.EvFree, Time: 3, Addr: ^trace.Addr(0)},
	}
	data := encode(t, events, WithBatch(2))
	_, got := decode(t, data)
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestHeaderMetadata(t *testing.T) {
	sites := map[trace.SiteID]string{3: "s3", 1: "s1", 7: "lookup_table"}
	var buf bytes.Buffer
	w := NewWriter(&buf, WithName("linkedlist"))
	for id, name := range sites {
		w.NameSite(id, name)
	}
	w.Emit(trace.Event{Kind: trace.EvAccess, Instr: 1, Addr: 8, Size: 8})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, events := decode(t, buf.Bytes())
	if r.Name() != "linkedlist" {
		t.Errorf("Name = %q, want linkedlist", r.Name())
	}
	if len(events) != 1 {
		t.Fatalf("decoded %d events, want 1", len(events))
	}
	got := r.Sites()
	if len(got) != len(sites) {
		t.Fatalf("Sites = %v, want %v", got, sites)
	}
	for id, name := range sites {
		if got[id] != name {
			t.Errorf("site %d = %q, want %q", id, got[id], name)
		}
	}
}

func TestDeterministicBytes(t *testing.T) {
	// The site table is sorted by ID, so encoding the same trace twice —
	// with map iteration order left to chance — yields identical bytes.
	events := randomEvents(500, 2)
	sites := map[trace.SiteID]string{9: "a", 4: "b", 22: "c", 1: "d", 13: "e"}
	enc := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, WithName("det"))
		w.SetSites(sites)
		for _, e := range events {
			w.Emit(e)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := enc()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(first, enc()) {
			t.Fatal("same trace encoded to different bytes")
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	data := encode(t, nil, WithName("empty"))
	r, events := decode(t, data)
	if r.Name() != "empty" || len(events) != 0 {
		t.Errorf("empty trace: name %q, %d events", r.Name(), len(events))
	}
}

func TestStridedCompactness(t *testing.T) {
	// The format exists because delta encoding makes regular access
	// patterns tiny: a strided scan must cost only a few bytes per event.
	const n = 10000
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{
			Kind:  trace.EvAccess,
			Time:  trace.Time(i),
			Instr: 7,
			Addr:  trace.Addr(0x40000000 + 8*i),
			Size:  8,
		}
	}
	data := encode(t, events)
	perEvent := float64(len(data)) / n
	if perEvent > 6 {
		t.Errorf("strided trace costs %.1f bytes/event, want <= 6", perEvent)
	}
	_, got := decode(t, data)
	if len(got) != n {
		t.Fatalf("decoded %d events, want %d", len(got), n)
	}
}

func TestVersionRejected(t *testing.T) {
	data := encode(t, randomEvents(10, 3))
	for _, ver := range []byte{0, 1, 4, 255} {
		bad := bytes.Clone(data)
		bad[len(Magic)] = ver
		if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("version %d: err = %v, want ErrBadTrace", ver, err)
		}
	}
	// The checksum-less legacy version 2 is no longer read either.
	bad := bytes.Clone(data)
	bad[len(Magic)] = 2
	_, err := NewReader(bytes.NewReader(bad))
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Errorf("version 2: err = %v, want ErrBadTrace (unsupported version 2)", err)
	}
}

func TestGarbageRejected(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"short magic":   []byte("ORM"),
		"wrong magic":   []byte("NOTATRACEFILE AT ALL"),
		"no version":    []byte(Magic),
		"name overflow": append([]byte(Magic), Version, 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
}

func TestTruncationRejected(t *testing.T) {
	// Any prefix of a valid trace must decode cleanly up to the cut and
	// then return either io.EOF (frame boundary) or ErrBadTrace — never a
	// panic, never silently invented events.
	events := randomEvents(300, 4)
	data := encode(t, events, WithBatch(16))
	for cut := 0; cut < len(data); cut++ {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("cut %d: header err = %v", cut, err)
			}
			continue
		}
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("cut %d: err = %v", cut, err)
				}
				break
			}
			if n++; n > len(events) {
				t.Fatalf("cut %d: decoded more events than were written", cut)
			}
		}
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	// Flip every byte of the first frame in turn; decoding must either
	// error with ErrBadTrace or produce no more events than were written.
	events := randomEvents(64, 5)
	data := encode(t, events, WithBatch(64))
	headerLen := len(encode(t, nil))
	for i := headerLen; i < len(data); i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0xff
		r, err := NewReader(bytes.NewReader(bad))
		if err != nil {
			continue
		}
		n := 0
		for {
			_, err := r.Next()
			if err != nil {
				break
			}
			if n++; n > len(events) {
				t.Fatalf("corrupt byte %d: unbounded decode", i)
			}
		}
	}
}

func TestStickyReaderError(t *testing.T) {
	data := encode(t, randomEvents(100, 6), WithBatch(8))
	bad := data[:len(data)-3] // truncate mid-frame
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for {
		_, err := r.Next()
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == io.EOF {
		t.Fatal("truncated trace decoded cleanly")
	}
	if _, err := r.Next(); err != firstErr {
		t.Errorf("second Next after error = %v, want sticky %v", err, firstErr)
	}
}

func TestNameSiteAfterEmitFails(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(trace.Event{Kind: trace.EvAccess, Instr: 1, Addr: 8, Size: 8})
	w.NameSite(1, "too late")
	if err := w.Close(); err == nil {
		t.Error("NameSite after first event must fail the writer")
	}
}

func TestBoundedReplayMemory(t *testing.T) {
	// The whole point of framing: replaying a trace ≥10× the batch size
	// must allocate O(frames + constant), not O(events). With the payload
	// buffer reused across frames, a full replay costs a small fixed
	// number of allocations regardless of trace length.
	const batch = 64
	events := randomEvents(batch*20, 7) // 20 frames, 10×+ the batch size
	data := encode(t, events, WithBatch(batch))

	allocs := testing.AllocsPerRun(10, func() {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
		}
	})
	// bufio.Reader + payload buffer + reader struct and little else; the
	// bound is far below one alloc per event or per frame.
	if allocs > 16 {
		t.Errorf("replay of %d events allocated %.0f times, want <= 16", len(events), allocs)
	}
}

func TestReplayHelper(t *testing.T) {
	events := randomEvents(1000, 8)
	data := encode(t, events)
	var buf trace.Buffer
	n, err := Replay(bytes.NewReader(data), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) || buf.Len() != len(events) {
		t.Fatalf("Replay delivered %d events, want %d", n, len(events))
	}
}
