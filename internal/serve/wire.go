// Package serve implements the ormpd trace-ingestion service: a TCP
// server that feeds ORMTRACE-v3 frames into the streaming profiling
// pipelines, with bounded per-session queues (backpressure), admission
// control, periodic crash-consistent checkpoints, and a reconnecting
// client that resumes from the last acknowledged frame.
//
// # Wire protocol (ORMP/1)
//
// A connection starts with the 5-byte preamble "ORMP" + version (1),
// sent by the client. Both directions then exchange messages framed as
//
//	type   1 byte
//	length uvarint (body byte count, bounded by MaxBody)
//	body   length bytes
//
// Client→server: Hello (session ID, workload, site table), Frame
// (uvarint frame index + one standalone ORMTRACE-v3 frame, CRC and all),
// Done (uvarint total frame count). Server→client: Welcome (uvarint
// durable cursor — the index the client must resume sending from), Retry
// (uvarint suggested retry-after in milliseconds; sent instead of
// Welcome when admission control rejects the connection), Ack (uvarint
// durable cursor), Bye (uvarint frames applied; the session completed
// and profiles are flushed), Err (UTF-8 reason; terminal).
//
// The server acknowledges a frame only after a checkpoint holding it has
// been durably written (atomic rename + fsync), so the Welcome cursor
// after a crash is always ≤ every Ack the client ever saw — the client's
// unacked-frame window is guaranteed to cover the gap. See
// docs/FORMATS.md ("ORMP/1 wire protocol") and docs/ARCHITECTURE.md
// ("Service layer").
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"ormprof/internal/codec"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
)

// ProtoMagic is the connection preamble: protocol name + version byte.
const ProtoMagic = "ORMP\x01"

// MsgType identifies one wire message.
type MsgType byte

// Client→server and server→client message types.
const (
	MsgHello MsgType = 0x01
	MsgFrame MsgType = 0x02
	MsgDone  MsgType = 0x03

	MsgWelcome MsgType = 0x10
	MsgRetry   MsgType = 0x11
	MsgAck     MsgType = 0x12
	MsgBye     MsgType = 0x13
	MsgErr     MsgType = 0x1F
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgFrame:
		return "Frame"
	case MsgDone:
		return "Done"
	case MsgWelcome:
		return "Welcome"
	case MsgRetry:
		return "Retry"
	case MsgAck:
		return "Ack"
	case MsgBye:
		return "Bye"
	case MsgErr:
		return "Err"
	}
	return fmt.Sprintf("MsgType(%#02x)", byte(t))
}

// MaxBody bounds every message body: the largest legitimate message is a
// Frame carrying a full-size trace frame plus its index.
const MaxBody = tracefmt.MaxFramePayload + 64

// MaxSessionIDLen bounds the client-chosen session identifier.
const MaxSessionIDLen = 256

// ErrProtocol wraps every wire-level violation (bad preamble, oversized
// body, malformed message). It is terminal for the connection but not for
// the session: the peer may reconnect and resume.
var ErrProtocol = errors.New("serve: protocol error")

func protof(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// writeMsg frames and writes one message.
func writeMsg(w io.Writer, t MsgType, body []byte) error {
	if len(body) > MaxBody {
		return protof("%s body %d bytes exceeds limit %d", t, len(body), MaxBody)
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = byte(t)
	n := binary.PutUvarint(hdr[1:], uint64(len(body)))
	if _, err := w.Write(hdr[:1+n]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readMsg reads one message. The returned body is freshly allocated.
func readMsg(br *bufio.Reader) (MsgType, []byte, error) {
	tb, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	body, err := codec.ReadBytes(br, MaxBody)
	if err != nil {
		return 0, nil, protof("message body: %v", err)
	}
	return MsgType(tb), body, nil
}

// readRawMsg reads one message like readMsg but also returns the exact
// bytes as they appeared on the wire (type byte, length prefix, body), so
// the router can forward a message verbatim — ORMP/1 shard-to-shard is
// the same protocol, not a re-encoding, and byte-level forwarding is what
// guarantees it. readMsg accepts only minimal length prefixes, so
// re-encoding the length reproduces the wire bytes exactly.
func readRawMsg(br *bufio.Reader) (mt MsgType, raw, body []byte, err error) {
	mt, body, err = readMsg(br)
	if err != nil {
		return 0, nil, nil, err
	}
	raw = binary.AppendUvarint([]byte{byte(mt)}, uint64(len(body)))
	return mt, append(raw, body...), body, nil
}

// parseUvarintBody decodes the single-uvarint body shared by Welcome,
// Retry, Ack, Bye, Done and AdminOK.
func parseUvarintBody(t MsgType, body []byte) (uint64, error) {
	c := codec.NewCursor(body)
	v := c.Uvarint()
	if err := c.End(); err != nil {
		return 0, protof("%s body is not a single uvarint: %v", t, err)
	}
	return v, nil
}

// MaxAddrHintLen bounds the redirect address a Retry may carry.
const MaxAddrHintLen = 256

// encodeRetry builds a Retry body: the retry-after in milliseconds,
// optionally followed by a redirect address. The address is appended only
// when non-empty, so an ordinary admission-control Retry remains the
// classic single-uvarint body; the extended form is how a standby router
// tells a client where the active router lives (see Router standby mode)
// without inventing a new message type.
func encodeRetry(ms uint64, addr string) []byte {
	b := binary.AppendUvarint(nil, ms)
	if addr != "" {
		b = codec.AppendString(b, addr)
	}
	return b
}

// decodeRetry parses a Retry body in either form.
func decodeRetry(body []byte) (ms uint64, addr string, err error) {
	c := codec.NewCursor(body)
	ms = c.Uvarint()
	if c.Err() == nil && c.Len() > 0 {
		addr = c.String(MaxAddrHintLen)
	}
	if err := c.End(); err != nil {
		return 0, "", protof("Retry body: %v", err)
	}
	return ms, addr, nil
}

// Hello is the session handshake: who is connecting and what trace
// metadata the profiles should carry.
type Hello struct {
	SessionID string
	Workload  string
	Sites     map[trace.SiteID]string
}

func encodeHello(h *Hello) []byte {
	b := codec.AppendString(nil, h.SessionID)
	b = codec.AppendString(b, h.Workload)
	ids := make([]trace.SiteID, 0, len(h.Sites))
	for id := range h.Sites {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
		b = codec.AppendString(b, h.Sites[id])
	}
	return b
}

func decodeHello(body []byte) (*Hello, error) {
	c := codec.NewCursor(body)
	h := &Hello{SessionID: c.String(MaxSessionIDLen), Workload: c.String(tracefmt.MaxNameLen)}
	if nSites := c.Count(tracefmt.MaxSites); nSites > 0 {
		h.Sites = make(map[trace.SiteID]string, nSites)
		for i := 0; i < nSites; i++ {
			id := c.Uvarint()
			if id > uint64(^trace.SiteID(0)) {
				return nil, protof("site id %d overflows SiteID", id)
			}
			h.Sites[trace.SiteID(id)] = c.String(tracefmt.MaxNameLen)
		}
	}
	if err := c.End(); err != nil {
		return nil, protof("handshake: %v", err)
	}
	if h.SessionID == "" {
		return nil, protof("empty session ID")
	}
	return h, nil
}

// encodeFrameMsg builds a Frame message body: the frame's index followed
// by its raw bytes.
func encodeFrameMsg(index uint64, frame []byte) []byte {
	return append(binary.AppendUvarint(nil, index), frame...)
}

func decodeFrameMsg(body []byte) (index uint64, frame []byte, err error) {
	c := codec.NewCursor(body)
	index = c.Uvarint()
	if err := c.Err(); err != nil {
		return 0, nil, protof("Frame body lacks an index: %v", err)
	}
	return index, body[c.Offset():], nil
}
