package main

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"ormprof/internal/serve"
)

// ORMP/1 message types the tap reads (see internal/serve/wire.go; the
// protocol is documented in docs/FORMATS.md).
const (
	msgFrame   = byte(serve.MsgFrame)
	msgWelcome = byte(serve.MsgWelcome)
	msgAck     = byte(serve.MsgAck)
	msgBye     = byte(serve.MsgBye)
)

// sessionTap observes one session's client connections through
// serve.ClientConfig.Dial. It times each frame from its write to the
// durable Ack (or Bye) that covers it; with a tracer it also records a
// session span (Push to Bye) and one span per frame (write to Ack).
//
// Writes come from the pushing goroutine and reads from the client's ack
// reader, so all state is behind mu.
type sessionTap struct {
	id  string
	rec *tracer

	mu       sync.Mutex
	session  int                  // session span
	written  map[uint64]time.Time // unacknowledged frame -> last write time
	acked    uint64               // highest cursor from Welcome, Ack or Bye
	ackLatMS []float64            // one sample per Ack: its oldest newly covered frame
	ackCover []int                // frames each Ack newly covered
	byeCover int                  // frames the Bye covered beyond the last Ack
	lastAck  time.Time            // last Ack read
	byeAt    time.Time            // Bye read
	bytesOut int64
}

func newSessionTap(id string, rec *tracer) *sessionTap {
	t := &sessionTap{id: id, rec: rec, written: make(map[uint64]time.Time)}
	t.session = rec.begin(id, "client.session", 0)
	return t
}

// finish closes the session span once Push has returned.
func (t *sessionTap) finish() { t.rec.end(t.session) }

// dial returns a ClientConfig.Dial that connects to addr through the tap.
func (t *sessionTap) dial(addr string) func(context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &tapConn{Conn: c, tap: t, out: msgParser{preamble: len(serve.ProtoMagic)}}, nil
	}
}

// onWrite handles one complete client message.
func (t *sessionTap) onWrite(typ byte, head []byte, at time.Time) {
	if typ != msgFrame {
		return
	}
	if idx, n := binary.Uvarint(head); n > 0 {
		t.mu.Lock()
		t.written[idx] = at
		t.mu.Unlock()
	}
}

// onRead handles one complete server message.
func (t *sessionTap) onRead(typ byte, head []byte, at time.Time) {
	v, n := binary.Uvarint(head)
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch typ {
	case msgWelcome:
		if v > t.acked {
			t.acked = v
		}
	case msgAck:
		if v > t.acked {
			oldest, ok := t.written[t.acked]
			if ok {
				t.ackLatMS = append(t.ackLatMS, float64(at.Sub(oldest))/float64(time.Millisecond))
			}
			t.ackCover = append(t.ackCover, int(v-t.acked))
			t.lastAck = at
			t.cover(v, at)
		}
	case msgBye:
		t.byeAt = at
		if v > t.acked {
			t.byeCover = int(v - t.acked)
			t.cover(v, at)
		}
	}
}

// cover retires frames [acked, v), recording a frame span for each.
// Callers hold mu.
func (t *sessionTap) cover(v uint64, at time.Time) {
	for i := t.acked; i < v; i++ {
		if w, ok := t.written[i]; ok {
			t.rec.add(t.id, "client.frame", t.session, w, at)
			delete(t.written, i)
		}
	}
	t.acked = v
}

// tapConn feeds both directions of one connection through msgParsers.
type tapConn struct {
	net.Conn
	tap     *sessionTap
	out, in msgParser
}

// Write parses p before sending it, so a frame's write time is recorded
// before any Ack covering it can be read. A short write breaks the
// connection, and the client then resends from the durable cursor.
func (c *tapConn) Write(p []byte) (int, error) {
	at := time.Now()
	c.out.feed(p, func(typ byte, head []byte) { c.tap.onWrite(typ, head, at) })
	n, err := c.Conn.Write(p)
	c.tap.mu.Lock()
	c.tap.bytesOut += int64(n)
	c.tap.mu.Unlock()
	return n, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		at := time.Now()
		c.in.feed(p[:n], func(typ byte, head []byte) { c.tap.onRead(typ, head, at) })
	}
	return n, err
}

// msgParser splits a byte stream into ORMP/1 messages (type byte, uvarint
// body length, body) incrementally, keeping only the first bytes of each
// body: every message the tap reads starts with a uvarint.
type msgParser struct {
	preamble int // bytes of connection preamble still to skip

	inBody bool
	typ    byte
	haveT  bool
	length uint64
	shift  uint
	left   uint64
	head   [binary.MaxVarintLen64]byte
	nhead  int
}

func (p *msgParser) feed(b []byte, emit func(typ byte, head []byte)) {
	for len(b) > 0 {
		if p.preamble > 0 {
			k := min(p.preamble, len(b))
			p.preamble -= k
			b = b[k:]
			continue
		}
		if !p.inBody {
			c := b[0]
			b = b[1:]
			if !p.haveT {
				p.typ, p.haveT = c, true
				p.length, p.shift, p.nhead = 0, 0, 0
				continue
			}
			p.length |= uint64(c&0x7f) << p.shift
			p.shift += 7
			if c < 0x80 {
				p.inBody, p.left = true, p.length
				if p.left == 0 {
					p.done(emit)
				}
			}
			continue
		}
		k := int(min(p.left, uint64(len(b))))
		if room := len(p.head) - p.nhead; room > 0 {
			p.nhead += copy(p.head[p.nhead:], b[:min(k, room)])
		}
		p.left -= uint64(k)
		b = b[k:]
		if p.left == 0 {
			p.done(emit)
		}
	}
}

func (p *msgParser) done(emit func(typ byte, head []byte)) {
	emit(p.typ, p.head[:p.nhead])
	p.inBody, p.haveT = false, false
}
