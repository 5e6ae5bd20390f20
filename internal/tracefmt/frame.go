package tracefmt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"ormprof/internal/codec"
	"ormprof/internal/trace"
)

// This file factors the v3 frame envelope into a standalone codec, so a
// frame is a first-class unit independent of the file Writer/Reader: the
// ormpd wire protocol ships each batch of events as exactly one of these
// frames, inheriting the per-frame CRC-32C end-to-end (a frame corrupted
// anywhere between sender and profiler is detected by the same check that
// guards trace files).

// appendEvent encodes one event in the record layout shared by every v3
// producer, updating the caller's delta baselines. It returns false for an
// unencodable event kind.
func appendEvent(frame []byte, e trace.Event, lastAddr *trace.Addr, lastTime *trace.Time) ([]byte, bool) {
	dt := int64(e.Time - *lastTime)
	da := int64(e.Addr - *lastAddr)

	kind := byte(e.Kind)
	if e.Store {
		kind |= storeFlag
	}
	switch e.Kind {
	case trace.EvAccess:
		frame = append(frame, kind)
		frame = binary.AppendVarint(frame, dt)
		frame = binary.AppendUvarint(frame, uint64(e.Instr))
		frame = binary.AppendVarint(frame, da)
		frame = binary.AppendUvarint(frame, uint64(e.Size))
	case trace.EvAlloc:
		frame = append(frame, kind)
		frame = binary.AppendVarint(frame, dt)
		frame = binary.AppendUvarint(frame, uint64(e.Site))
		frame = binary.AppendVarint(frame, da)
		frame = binary.AppendUvarint(frame, uint64(e.Size))
	case trace.EvFree:
		frame = append(frame, kind)
		frame = binary.AppendVarint(frame, dt)
		frame = binary.AppendVarint(frame, da)
	default:
		return frame, false
	}
	*lastTime = e.Time
	*lastAddr = e.Addr
	return frame, true
}

// appendFrame appends the complete v3 frame envelope — sync marker, payload
// length, CRC-32C, record count, records — to dst.
func appendFrame(dst []byte, records []byte, count int) []byte {
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], uint64(count))
	crc := crc32.Update(crc32.Checksum(cnt[:cn], crcTable), crcTable, records)
	dst = append(dst, FrameMagic...)
	dst = binary.AppendUvarint(dst, uint64(cn+len(records)))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, cnt[:cn]...)
	dst = append(dst, records...)
	return dst
}

// EncodeFrame encodes a batch of events as one standalone v3 frame. Frames
// are self-contained (delta baselines start at zero), so the result is
// byte-identical to what a Writer with this exact batch would emit. The
// batch must be non-empty, hold at most MaxBatch events, and encode within
// MaxFramePayload bytes.
func EncodeFrame(events []trace.Event) ([]byte, error) {
	if len(events) == 0 {
		return nil, badf("cannot encode an empty frame")
	}
	if len(events) > MaxBatch {
		return nil, badf("frame of %d events exceeds batch limit %d", len(events), MaxBatch)
	}
	var records []byte
	var lastAddr trace.Addr
	var lastTime trace.Time
	for _, e := range events {
		var ok bool
		records, ok = appendEvent(records, e, &lastAddr, &lastTime)
		if !ok {
			return nil, badf("cannot encode event kind %d", e.Kind)
		}
	}
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], uint64(len(events)))
	if cn+len(records) > MaxFramePayload {
		return nil, badf("frame payload %d exceeds limit %d", cn+len(records), MaxFramePayload)
	}
	return appendFrame(nil, records, len(events)), nil
}

// DecodeFrame decodes one standalone v3 frame produced by EncodeFrame (or
// cut from a v3 trace file). The slice must hold exactly one frame; the
// CRC is verified before any record is decoded, and every decode error
// wraps ErrBadTrace.
func DecodeFrame(data []byte) ([]trace.Event, error) {
	return DecodeFrameInto(nil, data)
}

// DecodeFrameInto is DecodeFrame appending into dst's capacity, so a
// caller decoding frames in a loop (the ormpd session reader, replay
// tools) can reuse one buffer across frames instead of allocating per
// frame: pass the previous result re-sliced to [:0]. On error the
// returned slice is dst unchanged.
func DecodeFrameInto(dst []trace.Event, data []byte) ([]trace.Event, error) {
	payload, n, _, err := parseFrame(data)
	if err != nil {
		return dst, err
	}
	if n < len(data) {
		return dst, badf("%d trailing bytes after frame", len(data)-n)
	}
	var d frameDecoder
	if err := d.start(payload); err != nil {
		return dst, err
	}
	events := dst
	base := len(events)
	if cap(events)-base < d.total {
		grown := make([]trace.Event, base, base+d.total)
		copy(grown, events)
		events = grown
	}
	for d.left > 0 {
		e, err := d.next(int64(len(events) - base))
		if err != nil {
			return dst, err
		}
		events = append(events, e)
	}
	return events, nil
}

// parseFrame parses the v3 frame envelope at the start of w: sync marker,
// payload length, CRC-32C, payload. It returns the checksum-verified
// payload and the envelope's length in bytes. short reports that w ends
// inside the envelope, which the lenient reader answers by reading more
// input. On a checksum mismatch the unverified payload still comes back,
// for the lenient reader's count of the events it loses.
func parseFrame(w []byte) (payload []byte, n int, short bool, err error) {
	if len(w) < len(FrameMagic) {
		return nil, 0, true, badf("frame shorter than its sync marker")
	}
	if string(w[:len(FrameMagic)]) != FrameMagic {
		return nil, 0, false, badf("bad frame magic %x", w[:len(FrameMagic)])
	}
	c := codec.NewCursor(w[len(FrameMagic):])
	pl := c.Uvarint()
	if err := c.Err(); err != nil {
		return nil, 0, errors.Is(err, codec.ErrTruncated), badf("frame length: %v", err)
	}
	if err := checkFrameLen(pl); err != nil {
		return nil, 0, false, err
	}
	if uint64(c.Len()) < 4+pl {
		return nil, 0, true, badf("frame truncated: %d bytes, want %d", c.Len(), 4+pl)
	}
	want := binary.LittleEndian.Uint32(c.Bytes(4))
	payload = c.Bytes(int(pl))
	return payload, len(FrameMagic) + c.Offset(), false, checkFrameCRC(payload, want)
}

// checkFrameLen bounds a frame's declared payload length.
func checkFrameLen(pl uint64) error {
	if pl == 0 || pl > MaxFramePayload {
		return badf("frame payload %d outside (0, %d]", pl, MaxFramePayload)
	}
	return nil
}

// checkFrameCRC verifies a frame payload against its header checksum.
func checkFrameCRC(payload []byte, want uint32) error {
	if got := crc32.Checksum(payload, crcTable); got != want {
		return badf("frame checksum mismatch: payload %08x, header %08x", got, want)
	}
	return nil
}
