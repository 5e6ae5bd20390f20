package tracefmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ormprof/internal/codec"
	"ormprof/internal/trace"
)

// Reader streams events out of a trace file. It implements trace.Source:
// profilers pull events one at a time while the reader holds only the
// current frame in memory, so replaying an arbitrarily long trace costs
// O(batch) memory, never O(trace).
//
// Every decode error wraps ErrBadTrace. The reader is deliberately
// paranoid — lengths and counts are bounded before any allocation, so a
// corrupt or hostile file produces an error, never a panic or an
// unbounded allocation (see FuzzReader).
//
// The reader has two fault policies:
//
//   - strict (the default): the first corrupt, truncated, or
//     checksum-failed frame is fatal. The error is sticky; no further
//     events are delivered.
//   - lenient (WithLenient): a damaged frame is abandoned and the reader
//     resynchronizes to the next valid frame boundary by scanning for the
//     frame sync marker and verifying the CRC32C. Events keep flowing;
//     only the damaged frame's records are lost. Skips are accounted in
//     Stats, and once the input is exhausted Next returns a
//     *CorruptionError (instead of io.EOF) summarizing the damage — the
//     salvage signal that trace.DrainContext hands back from every
//     cliutil.Events pass of a tool run with -lenient.
//
// Header damage is fatal in both modes: without the version byte and the
// site table there is no way to interpret, or correctly label, whatever
// frames might follow.
type Reader struct {
	br    *bufio.Reader
	name  string
	sites map[trace.SiteID]string
	ver   byte

	lenient  bool
	stats    Stats
	firstErr error

	cur     frameDecoder
	inFrame bool
	payload []byte // current frame payload (reused between frames)

	pend    []byte // lenient mode: buffered input awaiting frame validation
	pendOff int

	scratch [8]byte // frame magic + checksum reads (avoids per-frame allocs)

	err error
}

// ReaderOption configures a Reader.
type ReaderOption func(*Reader)

// WithLenient selects the lenient fault policy: resynchronize past damaged
// frames instead of failing on the first one. See the Reader documentation
// for the exact semantics.
func WithLenient() ReaderOption {
	return func(t *Reader) { t.lenient = true }
}

// NewReader parses the trace header of r and returns a Reader positioned
// at the first event.
func NewReader(r io.Reader, opts ...ReaderOption) (*Reader, error) {
	t := &Reader{br: bufio.NewReader(r)}
	for _, o := range opts {
		o(t)
	}
	if err := t.readHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadTrace, fmt.Sprintf(format, args...))
}

func (t *Reader) readHeader() error {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(t.br, magic); err != nil {
		return badf("header: %v", err)
	}
	if string(magic) != Magic {
		return badf("bad magic %q", magic)
	}
	ver, err := t.br.ReadByte()
	if err != nil {
		return badf("version: %v", err)
	}
	if ver != Version {
		return badf("unsupported version %d (want %d)", ver, Version)
	}
	t.ver = ver
	t.stats.Version = int(ver)
	name, err := codec.ReadBytes(t.br, MaxNameLen)
	if err != nil {
		return badf("workload name: %v", err)
	}
	t.name = string(name)
	nSites, err := codec.ReadUvarint(t.br)
	if err != nil {
		return badf("site count: %v", err)
	}
	if nSites > MaxSites {
		return badf("unreasonable site count %d", nSites)
	}
	if nSites > 0 {
		t.sites = make(map[trace.SiteID]string, nSites)
	}
	for i := uint64(0); i < nSites; i++ {
		id, err := codec.ReadUvarint(t.br)
		if err != nil {
			return badf("site id: %v", err)
		}
		if id > uint64(^trace.SiteID(0)) {
			return badf("site id %d overflows SiteID", id)
		}
		name, err := codec.ReadBytes(t.br, MaxNameLen)
		if err != nil {
			return badf("site name: %v", err)
		}
		t.sites[trace.SiteID(id)] = string(name)
	}
	return nil
}

// Name returns the workload name recorded in the header ("" if none).
func (t *Reader) Name() string { return t.name }

// Sites returns the static allocation-site name table from the header.
// The map may be nil; the caller must not modify it.
func (t *Reader) Sites() map[trace.SiteID]string { return t.sites }

// Events reports how many events have been decoded so far.
func (t *Reader) Events() int64 { return t.stats.Events }

// Version reports the format version of the trace being read.
func (t *Reader) Version() int { return int(t.ver) }

// Stats returns the reader's delivery and damage accounting so far. In
// strict mode the skip counters are always zero.
func (t *Reader) Stats() Stats { return t.stats }

// frameDecoder decodes the records of one self-contained frame payload.
// Frames reset the delta baselines to 0, so a decoder needs nothing beyond
// the payload bytes — which is what lets the lenient reader validate a
// candidate frame found mid-scan before committing to it.
type frameDecoder struct {
	c        codec.Cursor
	left     int
	total    int
	lastAddr trace.Addr
	lastTime trace.Time
}

// start parses and bounds the record count, resetting the delta baselines.
func (d *frameDecoder) start(payload []byte) error {
	d.c = codec.NewCursor(payload)
	d.lastAddr = 0
	d.lastTime = 0
	// Every record costs at least 3 payload bytes (kind + Δtime + Δaddr),
	// so Count's bound by the bytes left is already generous.
	cnt := d.c.Count(MaxFramePayload)
	if err := d.c.Err(); err != nil {
		return badf("record count: %v", err)
	}
	if cnt == 0 {
		return badf("record count 0 impossible for %d-byte frame", len(payload))
	}
	d.left = cnt
	d.total = cnt
	return nil
}

// next decodes one record. delivered is the reader's running event count,
// used only to label truncation errors.
func (d *frameDecoder) next(delivered int64) (trace.Event, error) {
	if d.c.Len() == 0 {
		return trace.Event{}, badf("frame ends after %d of %d records", delivered, d.left)
	}
	kindByte := d.c.Byte()
	store := kindByte&storeFlag != 0
	kind := trace.EventKind(kindByte &^ storeFlag)
	d.lastTime += trace.Time(d.c.Varint())

	var e trace.Event
	switch kind {
	case trace.EvAccess:
		instr, da, size := d.c.Uvarint(), d.c.Varint(), d.c.Uvarint()
		if instr > uint64(^trace.InstrID(0)) {
			return trace.Event{}, badf("instruction id %d overflows InstrID", instr)
		}
		if size > uint64(^uint32(0)) {
			return trace.Event{}, badf("access size %d overflows uint32", size)
		}
		d.lastAddr += trace.Addr(da)
		e = trace.Event{Kind: trace.EvAccess, Time: d.lastTime, Instr: trace.InstrID(instr),
			Addr: d.lastAddr, Size: uint32(size), Store: store}
	case trace.EvAlloc:
		if store {
			return trace.Event{}, badf("store flag on alloc event")
		}
		site, da, size := d.c.Uvarint(), d.c.Varint(), d.c.Uvarint()
		if site > uint64(^trace.SiteID(0)) {
			return trace.Event{}, badf("site id %d overflows SiteID", site)
		}
		if size > uint64(^uint32(0)) {
			return trace.Event{}, badf("alloc size %d overflows uint32", size)
		}
		d.lastAddr += trace.Addr(da)
		e = trace.Event{Kind: trace.EvAlloc, Time: d.lastTime, Site: trace.SiteID(site),
			Addr: d.lastAddr, Size: uint32(size)}
	case trace.EvFree:
		if store {
			return trace.Event{}, badf("store flag on free event")
		}
		d.lastAddr += trace.Addr(d.c.Varint())
		e = trace.Event{Kind: trace.EvFree, Time: d.lastTime, Addr: d.lastAddr}
	default:
		return trace.Event{}, badf("unknown event kind %d", kindByte)
	}
	if err := d.c.Err(); err != nil {
		return trace.Event{}, badf("record %d of frame: %v", d.total-d.left, err)
	}
	d.left--
	if d.left == 0 && d.c.Len() != 0 {
		return trace.Event{}, badf("%d trailing bytes after last record of frame", d.c.Len())
	}
	return e, nil
}

// grow returns buf resized to n bytes, reallocating only when needed.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Next implements trace.Source: decode the next event, loading the next
// frame when the current one is exhausted. Returns io.EOF at a clean end
// of trace. In strict mode any corruption surfaces immediately as an
// ErrBadTrace-wrapped error; in lenient mode corruption is skipped and the
// end of input surfaces as a *CorruptionError if anything was lost.
// Terminal errors are sticky.
func (t *Reader) Next() (trace.Event, error) {
	if t.err != nil {
		return trace.Event{}, t.err
	}
	e, err := t.next()
	if err != nil {
		t.err = err // sticky: a broken (or exhausted) stream stays that way
		return trace.Event{}, err
	}
	t.stats.Events++
	return e, nil
}

func (t *Reader) next() (trace.Event, error) {
	for {
		if !t.inFrame {
			if err := t.nextFrame(); err != nil {
				return trace.Event{}, err
			}
		}
		e, err := t.cur.next(t.stats.Events)
		if err == nil {
			if t.cur.left == 0 {
				t.inFrame = false
			}
			return e, nil
		}
		if !t.lenient {
			return trace.Event{}, err
		}
		// Lenient: a frame whose checksum verified still failed to decode —
		// only possible with a forged checksum. Abandon the rest of the
		// frame and resynchronize.
		t.recordCorruption(err, int64(t.cur.left))
		t.stats.SkippedFrames++
		t.inFrame = false
	}
}

func (t *Reader) recordCorruption(err error, lostEvents int64) {
	t.stats.Corruptions++
	t.stats.SkippedEvents += lostEvents
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *Reader) nextFrame() error {
	if t.lenient {
		return t.lenientNextFrame()
	}
	return t.strictNextFrame()
}

// strictNextFrame loads the next checksummed frame: sync marker, payload
// length, CRC32C, payload. Returns io.EOF on a clean end of trace.
func (t *Reader) strictNextFrame() error {
	magic := t.scratch[:len(FrameMagic)]
	if _, err := io.ReadFull(t.br, magic); err != nil {
		if err == io.EOF {
			return io.EOF // clean end: trace ends on a frame boundary
		}
		return badf("frame magic: %v", err)
	}
	if string(magic) != FrameMagic {
		return badf("bad frame magic %x", magic)
	}
	pl, err := codec.ReadUvarint(t.br)
	if err != nil {
		return badf("frame length: %v", err)
	}
	if err := checkFrameLen(pl); err != nil {
		return err
	}
	crcBuf := t.scratch[4:8]
	if _, err := io.ReadFull(t.br, crcBuf); err != nil {
		return badf("frame checksum: %v", err)
	}
	t.payload = grow(t.payload, int(pl))
	if _, err := io.ReadFull(t.br, t.payload); err != nil {
		return badf("frame body: %v", err)
	}
	if err := checkFrameCRC(t.payload, binary.LittleEndian.Uint32(crcBuf)); err != nil {
		return err
	}
	if err := t.cur.start(t.payload); err != nil {
		return err
	}
	t.inFrame = true
	t.stats.Frames++
	return nil
}

// fillChunk is how much input the lenient reader pulls per refill while
// validating or scanning.
const fillChunk = 64 << 10

// errNeedMore signals that the buffered window is too short to decide
// whether a frame starts at the current offset.
var errNeedMore = errors.New("tracefmt: need more data")

// fill grows the lenient read-ahead buffer, compacting consumed bytes
// first. io.EOF means the underlying stream is exhausted.
func (t *Reader) fill() error {
	if t.pendOff > 0 {
		n := copy(t.pend, t.pend[t.pendOff:])
		t.pend = t.pend[:n]
		t.pendOff = 0
	}
	start := len(t.pend)
	t.pend = append(t.pend, make([]byte, fillChunk)...)
	n, err := t.br.Read(t.pend[start:])
	t.pend = t.pend[:start+n]
	if n > 0 {
		return nil
	}
	if err == nil || err == io.EOF {
		return io.EOF
	}
	return err
}

// lenientNextFrame acquires the next valid frame, skipping damage. All
// input flows through the pend buffer so that a frame mis-parse (a corrupt
// length field claiming megabytes, say) never consumes bytes that a later
// scan could still recognize as real frames.
func (t *Reader) lenientNextFrame() error {
	scanning := false
	for {
		lost, err := t.tryFrame()
		if err == nil {
			return nil
		}
		if err == errNeedMore {
			ferr := t.fill()
			if ferr == nil {
				continue
			}
			if ferr != io.EOF {
				return ferr // a real I/O error, not trace damage
			}
			// Input exhausted: whatever remains cannot form a frame.
			rem := int64(len(t.pend) - t.pendOff)
			if rem > 0 && !scanning {
				t.recordCorruption(badf("truncated frame at end of trace"), lost)
				t.stats.SkippedFrames++
			}
			t.stats.SkippedBytes += rem
			t.pendOff = len(t.pend)
			return t.endOfTrace()
		}
		// No valid frame starts here. The first failure at an expected
		// frame boundary is the corruption incident; subsequent failures
		// are just the scan walking over garbage.
		if !scanning {
			scanning = true
			t.recordCorruption(err, lost)
			t.stats.SkippedFrames++
		}
		t.skipForward()
	}
}

func (t *Reader) endOfTrace() error {
	if t.stats.Damaged() {
		return &CorruptionError{Stats: t.stats, First: t.firstErr}
	}
	return io.EOF
}

// tryFrame attempts to parse one complete frame at the current buffer
// offset, consuming it on success. It returns errNeedMore when the window
// must grow, or the decode error when no valid frame starts here — along
// with a best-effort count of the events the failed frame claimed to hold
// (0 when the count itself is unreadable).
func (t *Reader) tryFrame() (int64, error) {
	payload, n, short, err := parseFrame(t.pend[t.pendOff:])
	switch {
	case short:
		return 0, errNeedMore
	case err != nil:
		return claimedCount(payload), err
	}
	t.payload = append(t.payload[:0], payload...)
	if err := t.cur.start(t.payload); err != nil {
		return claimedCount(payload), err
	}
	t.pendOff += n
	t.inFrame = true
	t.stats.Frames++
	return 0, nil
}

// claimedCount best-effort-parses a damaged payload's record count for the
// skipped-events accounting.
func claimedCount(payload []byte) int64 {
	c := codec.NewCursor(payload)
	return int64(c.Count(MaxFramePayload))
}

// skipForward advances the scan past an offset where no frame starts,
// straight to the next sync-marker candidate.
func (t *Reader) skipForward() {
	w := t.pend[t.pendOff:]
	skip := 1
	if i := bytes.Index(w[1:], []byte(FrameMagic)); i >= 0 {
		skip = 1 + i
	} else if d := len(w) - (len(FrameMagic) - 1); d > 1 {
		// No marker in the window: drop everything except a tail short
		// enough that a marker could still straddle the next refill.
		skip = d
	}
	t.pendOff += skip
	t.stats.SkippedBytes += int64(skip)
}

// Replay decodes a whole trace from r into sink, returning the event count
// and the header metadata. It is the push-style convenience over Reader.
func Replay(r io.Reader, sink trace.Sink) (int, error) {
	tr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	return trace.Drain(tr, sink)
}
