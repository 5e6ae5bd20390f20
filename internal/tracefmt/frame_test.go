package tracefmt

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ormprof/internal/trace"
)

func frameEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]trace.Event, n)
	for i := range evs {
		switch rng.Intn(6) {
		case 0:
			evs[i] = trace.Event{Kind: trace.EvAlloc, Site: trace.SiteID(rng.Intn(9)),
				Addr: trace.Addr(rng.Uint64()), Size: uint32(rng.Intn(1 << 16)), Time: trace.Time(i)}
		case 1:
			evs[i] = trace.Event{Kind: trace.EvFree, Addr: trace.Addr(rng.Uint64()), Time: trace.Time(i)}
		default:
			evs[i] = trace.Event{Kind: trace.EvAccess, Instr: trace.InstrID(rng.Intn(64)),
				Addr: trace.Addr(rng.Uint64()), Size: 8, Store: rng.Intn(2) == 0, Time: trace.Time(i)}
		}
	}
	return evs
}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 17, DefaultBatch} {
		evs := frameEvents(n, int64(n))
		frame, err := EncodeFrame(evs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, evs) {
			t.Errorf("n=%d: round trip altered events", n)
		}
	}
}

// TestFrameMatchesWriter: a standalone frame is byte-identical to the frame
// a Writer emits for the same batch — one encoding, whether the frame goes
// to a file or over the wire. (The golden v3 fixture therefore pins both.)
func TestFrameMatchesWriter(t *testing.T) {
	evs := frameEvents(300, 77)
	var buf bytes.Buffer
	w := NewWriter(&buf, WithBatch(len(evs)))
	for _, e := range evs {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Skip the header: magic, version, name, site count.
	headerLen := len(Magic) + 1 + 1 + 1
	fromWriter := buf.Bytes()[headerLen:]
	standalone, err := EncodeFrame(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromWriter, standalone) {
		t.Error("standalone frame differs from Writer output for the same batch")
	}
}

func TestFrameEncodeRejects(t *testing.T) {
	if _, err := EncodeFrame(nil); err == nil {
		t.Error("EncodeFrame accepted an empty batch")
	}
	if _, err := EncodeFrame([]trace.Event{{Kind: 99}}); err == nil {
		t.Error("EncodeFrame accepted an unknown event kind")
	}
	if _, err := EncodeFrame(make([]trace.Event, MaxBatch+1)); err == nil {
		t.Error("EncodeFrame accepted an oversized batch")
	}
}

// TestFrameDecodeRejectsDamage: every single-byte flip and truncation of a
// valid frame must be rejected with an ErrBadTrace error — the CRC is what
// carries the file format's corruption detection onto the wire.
func TestFrameDecodeRejectsDamage(t *testing.T) {
	frame, err := EncodeFrame(frameEvents(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	for off := range frame {
		bad := append([]byte(nil), frame...)
		bad[off] ^= 0x10
		if _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("flip at %d accepted", off)
		} else if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("flip at %d: error %v does not wrap ErrBadTrace", off, err)
		}
	}
	for _, n := range []int{0, 1, len(FrameMagic), len(frame) / 2, len(frame) - 1} {
		if _, err := DecodeFrame(frame[:n]); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation to %d: want ErrBadTrace, got %v", n, err)
		}
	}
	if _, err := DecodeFrame(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Error("DecodeFrame accepted trailing bytes")
	}
}

// TestFrameRejectsPaddedVarint: a record whose Δtime is a padded
// (non-minimal) varint fails even under a valid CRC, so a frame has one
// byte form (docs/FORMATS.md, "Varints").
func TestFrameRejectsPaddedVarint(t *testing.T) {
	free := byte(trace.EvFree)
	if _, err := DecodeFrame(appendFrame(nil, []byte{free, 0x00, 0x00}, 1)); err != nil {
		t.Fatalf("minimal record: %v", err)
	}
	if _, err := DecodeFrame(appendFrame(nil, []byte{free, 0x80, 0x00, 0x00}, 1)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("padded record: err %v, want ErrBadTrace", err)
	}
}
