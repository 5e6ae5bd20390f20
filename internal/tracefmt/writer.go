package tracefmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"ormprof/internal/trace"
)

// Writer streams events into a trace file. It implements trace.Sink, so it
// wires directly to the simulated machine's probes (or into a trace.Tee
// alongside a live profiler), and trace.SiteNamer, so the machine's static
// site names land in the header. Events are buffered into frames of the
// configured batch size; memory never exceeds one encoded frame.
//
// Errors are sticky: the first write error is remembered and returned by
// Close, and subsequent Emits become no-ops.
type Writer struct {
	w     *bufio.Writer
	name  string
	batch int

	sites       map[trace.SiteID]string
	wroteHeader bool

	frame    []byte // encoded records of the open frame
	out      []byte // reusable envelope buffer for flushFrame
	inFrame  int    // records in the open frame
	lastAddr trace.Addr
	lastTime trace.Time

	events int64
	n      int64
	err    error

	scratch [binary.MaxVarintLen64]byte
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithName records the workload name in the trace header. Replay tools use
// it to label profiles identically to a live run.
func WithName(name string) WriterOption {
	return func(w *Writer) { w.name = name }
}

// WithBatch sets the events-per-frame batch size (default DefaultBatch,
// capped at MaxBatch). Smaller frames mean lower replay memory and worse
// compression at the frame boundaries.
func WithBatch(n int) WriterOption {
	return func(w *Writer) {
		if n < 1 {
			n = 1
		}
		if n > MaxBatch {
			n = MaxBatch
		}
		w.batch = n
	}
}

// NewWriter starts a trace on w. The header is not written until the first
// event (or Close), so site names may still be announced via NameSite.
func NewWriter(w io.Writer, opts ...WriterOption) *Writer {
	tw := &Writer{w: bufio.NewWriter(w), batch: DefaultBatch}
	for _, o := range opts {
		o(tw)
	}
	return tw
}

// NameSite implements trace.SiteNamer: it records a static site's symbolic
// name for the header table. All names must arrive before the first Emit.
func (t *Writer) NameSite(site trace.SiteID, name string) {
	if t.wroteHeader {
		t.fail(fmt.Errorf("tracefmt: NameSite(%d, %q) after first event", site, name))
		return
	}
	if t.sites == nil {
		t.sites = make(map[trace.SiteID]string)
	}
	t.sites[site] = name
}

// SetSites replaces the header site-name table wholesale (convenience for
// re-encoding an already-collected trace).
func (t *Writer) SetSites(sites map[trace.SiteID]string) {
	for id, name := range sites {
		t.NameSite(id, name)
	}
}

func (t *Writer) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *Writer) write(b []byte) {
	if t.err != nil {
		return
	}
	n, err := t.w.Write(b)
	t.n += int64(n)
	t.err = err
}

func (t *Writer) uvarint(v uint64) {
	t.write(t.scratch[:binary.PutUvarint(t.scratch[:], v)])
}

func (t *Writer) writeString(s string) {
	t.uvarint(uint64(len(s)))
	t.write([]byte(s))
}

// header writes magic, version, workload name, and the site table, sorted
// by site ID so the bytes are deterministic.
func (t *Writer) header() {
	t.wroteHeader = true
	t.write([]byte(Magic))
	t.write([]byte{Version})
	t.writeString(t.name)
	ids := make([]trace.SiteID, 0, len(t.sites))
	for id := range t.sites {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	t.uvarint(uint64(len(ids)))
	for _, id := range ids {
		t.uvarint(uint64(id))
		t.writeString(t.sites[id])
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(b, buf[:binary.PutUvarint(buf[:], v)]...)
}

func appendVarint(b []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(b, buf[:binary.PutVarint(buf[:], v)]...)
}

// Emit implements trace.Sink: encode one event into the open frame,
// flushing the frame when it reaches the batch size.
func (t *Writer) Emit(e trace.Event) {
	if !t.wroteHeader {
		t.header()
	}
	// Deltas use two's-complement wrap-around so every 64-bit value round-
	// trips; frames reset the baselines to 0 to stay self-contained.
	var ok bool
	t.frame, ok = appendEvent(t.frame, e, &t.lastAddr, &t.lastTime)
	if !ok {
		t.fail(fmt.Errorf("tracefmt: cannot encode event kind %d", e.Kind))
		return
	}
	t.inFrame++
	t.events++
	if t.inFrame >= t.batch {
		t.flushFrame()
	}
}

// flushFrame writes the open frame: sync marker, payload length, CRC32C of
// the payload, record count, records. The marker lets a lenient reader find
// the next frame boundary after corruption; the checksum tells it whether a
// candidate boundary really is one.
func (t *Writer) flushFrame() {
	if t.inFrame == 0 {
		return
	}
	// Reuse one envelope buffer across frames: bufio copies the bytes out
	// synchronously, so the writer's steady state allocates nothing.
	t.out = appendFrame(t.out[:0], t.frame, t.inFrame)
	t.write(t.out)
	t.frame = t.frame[:0]
	t.inFrame = 0
	t.lastAddr = 0
	t.lastTime = 0
}

// Flush writes any buffered frame and flushes the underlying writer.
func (t *Writer) Flush() error {
	t.flushFrame()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes the trace and returns the first error encountered, if any.
// A trace with no events still gets its header, so an empty file is valid.
func (t *Writer) Close() error {
	if !t.wroteHeader {
		t.header()
	}
	return t.Flush()
}

// BytesWritten reports the encoded size so far (flushed frames only).
func (t *Writer) BytesWritten() int64 { return t.n }
