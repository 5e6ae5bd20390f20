package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"ormprof/internal/trace"
)

// FrameSource supplies the frames to push, addressable by index so any
// suffix can be re-sent after a reconnect. A recorded trace and a
// deterministic simulation both satisfy this trivially.
type FrameSource interface {
	// NumFrames reports the total frame count.
	NumFrames() int
	// Frame returns frame i's encoded bytes (a standalone ORMTRACE-v3
	// frame, as produced by tracefmt.EncodeFrame).
	Frame(i int) ([]byte, error)
}

// SliceFrames is an in-memory FrameSource.
type SliceFrames [][]byte

func (s SliceFrames) NumFrames() int { return len(s) }

func (s SliceFrames) Frame(i int) ([]byte, error) {
	if i < 0 || i >= len(s) {
		return nil, fmt.Errorf("serve: frame %d out of range [0,%d)", i, len(s))
	}
	return s[i], nil
}

// ClientConfig configures Push. Zero values select the documented
// defaults.
type ClientConfig struct {
	// Addr is the server's TCP address (ignored when Dial is set).
	Addr string
	// Addrs is an optional address list for clusters with more than one
	// router: connection attempts rotate through it, so any one router
	// going down costs the client a single failed attempt, not the
	// stream. All routers over the same shard list route identically, so
	// which one answers never affects the profile. Ignored when Dial is
	// set; takes precedence over Addr.
	Addrs []string
	// Dial overrides connection establishment (fault-injection hook).
	Dial func(ctx context.Context) (net.Conn, error)

	// SessionID identifies this stream across reconnects (required).
	SessionID string
	// Workload and Sites are the trace metadata carried by Hello.
	Workload string
	Sites    map[trace.SiteID]string

	// AttemptTimeout bounds each network operation (dial, handshake
	// read, frame write, ack read). Default 10s.
	AttemptTimeout time.Duration
	// MaxAttempts is how many consecutive failed attempts Push tolerates
	// before giving up with an *ExhaustedError. Progress (an ack
	// advancing, or a session completing a handshake and accepting at
	// least one frame) resets the count. Default 8.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (base doubling per consecutive failure, capped at max,
	// with ±50% jitter). Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter; a fixed seed makes retry
	// schedules reproducible. Default 1.
	JitterSeed int64

	// Window bounds frames in flight beyond the last acknowledged
	// cursor; when full, the sender waits for acks. Default 64.
	Window int

	// Logf, when set, receives one line per connection attempt.
	Logf func(format string, args ...any)

	// redirect shares the most recent Retry redirect hint between the
	// push loop (which learns it — a standby router naming the active)
	// and the default dialer (which spends it, once).
	redirect *string
}

func (c *ClientConfig) withDefaults() ClientConfig {
	out := *c
	if out.AttemptTimeout <= 0 {
		out.AttemptTimeout = 10 * time.Second
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 8
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 50 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 2 * time.Second
	}
	if out.JitterSeed == 0 {
		out.JitterSeed = 1
	}
	if out.Window <= 0 {
		out.Window = 64
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	out.redirect = new(string)
	if out.Dial == nil {
		addrs := out.Addrs
		if len(addrs) == 0 {
			addrs = []string{out.Addr}
		}
		// Push dials from one goroutine, so a plain counter rotates the
		// address list deterministically across attempts. A pending
		// redirect hint (a standby router pointing at the active) takes
		// one attempt's slot and is consumed whether or not it works —
		// a bad hint must cost one attempt, not wedge the rotation.
		attempt := 0
		hint := out.redirect
		out.Dial = func(ctx context.Context) (net.Conn, error) {
			addr := addrs[attempt%len(addrs)]
			attempt++
			if h := *hint; h != "" {
				*hint = ""
				addr = h
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return out
}

// ClientStats summarizes a Push run.
type ClientStats struct {
	Attempts    int // connection attempts, including the successful ones
	Retries     int // attempts that failed or were told to retry
	FramesSent  int // frame messages written, including re-sends
	FramesAcked int // highest acknowledged cursor observed
}

// ExhaustedError is the typed failure Push returns when the retry
// budget runs out: the trace was NOT fully ingested, and the caller
// should degrade (exit code 2) rather than pretend success.
type ExhaustedError struct {
	Attempts int
	LastErr  error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("serve: gave up after %d attempts: %v", e.Attempts, e.LastErr)
}

func (e *ExhaustedError) Unwrap() error { return e.LastErr }

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoffDelay computes the delay before attempt number fail (1-based):
// exponential growth from base, capped at max, with ±50% jitter drawn
// from rng. It is the one retry schedule in the service layer — the
// pushing client and the router's shard prober share it, so a seeded rng
// makes either side's whole retry history reproducible.
func backoffDelay(base, max time.Duration, rng *rand.Rand, fail int) time.Duration {
	d := base << (fail - 1)
	if d <= 0 || d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// Push streams every frame of src into the server, reconnecting and
// resuming from the last acknowledged frame until the stream completes
// or the retry budget is exhausted. It returns the stats either way.
func Push(ctx context.Context, cfg ClientConfig, src FrameSource) (ClientStats, error) {
	c := cfg.withDefaults()
	if c.SessionID == "" {
		return ClientStats{}, fmt.Errorf("serve: SessionID is required")
	}
	rng := rand.New(rand.NewSource(c.JitterSeed))
	var stats ClientStats
	var lastErr error
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if fails >= c.MaxAttempts {
			return stats, &ExhaustedError{Attempts: stats.Attempts, LastErr: lastErr}
		}
		if fails > 0 {
			if err := sleepCtx(ctx, backoffDelay(c.BackoffBase, c.BackoffMax, rng, fails)); err != nil {
				return stats, err
			}
		}
		stats.Attempts++
		done, progress, err := pushOnce(ctx, &c, src, &stats)
		if done {
			return stats, nil
		}
		stats.Retries++
		lastErr = err
		if progress {
			fails = 1
		} else {
			fails++
		}
		c.Logf("attempt %d: %v (acked %d/%d)", stats.Attempts, err, stats.FramesAcked, src.NumFrames())
	}
}

// errServerRetry marks a Retry response, handled like any other
// transient failure (backoff honors at least the server's hint).
var errServerRetry = errors.New("serve: server busy, retry later")

// pushOnce runs one connection attempt: handshake, stream from the
// server's cursor, Done, Bye. It reports whether the stream completed
// and whether the attempt made forward progress (for the retry budget).
func pushOnce(ctx context.Context, cfg *ClientConfig, src FrameSource, stats *ClientStats) (done, progress bool, err error) {
	dialCtx, cancel := context.WithTimeout(ctx, cfg.AttemptTimeout)
	conn, err := cfg.Dial(dialCtx)
	cancel()
	if err != nil {
		return false, false, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	deadline := func() { conn.SetDeadline(time.Now().Add(cfg.AttemptTimeout)) }

	// Preamble + Hello, then the server's verdict.
	deadline()
	if _, err := bw.WriteString(ProtoMagic); err != nil {
		return false, false, err
	}
	hello := &Hello{SessionID: cfg.SessionID, Workload: cfg.Workload, Sites: cfg.Sites}
	if err := writeMsg(bw, MsgHello, encodeHello(hello)); err != nil {
		return false, false, err
	}
	if err := bw.Flush(); err != nil {
		return false, false, err
	}
	deadline()
	mt, body, err := readMsg(br)
	if err != nil {
		return false, false, err
	}
	switch mt {
	case MsgWelcome:
	case MsgRetry:
		ms, redirect, perr := decodeRetry(body)
		if perr != nil {
			return false, false, perr
		}
		if redirect != "" {
			// A standby router naming the active: point the next dial there.
			cfg.Logf("redirected to %s", redirect)
			*cfg.redirect = redirect
		}
		wait := time.Duration(ms) * time.Millisecond
		if wait > 0 {
			if serr := sleepCtx(ctx, wait); serr != nil {
				return false, false, serr
			}
		}
		return false, false, errServerRetry
	case MsgErr:
		return false, false, fmt.Errorf("serve: server error: %s", body)
	default:
		return false, false, protof("expected Welcome, got %s", mt)
	}
	cursor, err := parseUvarintBody(mt, body)
	if err != nil {
		return false, false, err
	}
	total := uint64(src.NumFrames())
	if cursor > total {
		return false, false, protof("server cursor %d beyond stream end %d", cursor, total)
	}
	acked := cursor
	if int(acked) > stats.FramesAcked {
		stats.FramesAcked = int(acked)
	}

	// Ack reader: drains server messages concurrently so the send
	// window can move while frames are in flight.
	type ackResult struct {
		bye bool
		err error
	}
	acks := make(chan uint64, 16)
	ackDone := make(chan ackResult, 1)
	go func() {
		defer close(acks)
		for {
			conn.SetReadDeadline(time.Now().Add(cfg.AttemptTimeout))
			mt, body, err := readMsg(br)
			if err != nil {
				ackDone <- ackResult{err: err}
				return
			}
			switch mt {
			case MsgAck:
				v, err := parseUvarintBody(mt, body)
				if err != nil {
					ackDone <- ackResult{err: err}
					return
				}
				acks <- v
			case MsgBye:
				ackDone <- ackResult{bye: true}
				return
			case MsgErr:
				ackDone <- ackResult{err: fmt.Errorf("serve: server error: %s", body)}
				return
			default:
				ackDone <- ackResult{err: protof("unexpected %s from server", mt)}
				return
			}
		}
	}()
	fail := func(err error) (bool, bool, error) {
		conn.Close()
		for range acks {
		}
		madeProgress := uint64(stats.FramesAcked) > cursor
		return false, madeProgress, err
	}

	next := cursor
	for next < total {
		// Window control: wait for acks when too far ahead.
		for next-acked >= uint64(cfg.Window) {
			select {
			case <-ctx.Done():
				return fail(ctx.Err())
			case v, ok := <-acks:
				if !ok {
					res := <-ackDone
					return fail(res.err)
				}
				if v > acked {
					acked = v
					if int(acked) > stats.FramesAcked {
						stats.FramesAcked = int(acked)
					}
				}
			}
		}
		// Opportunistically drain acks without blocking.
		for {
			select {
			case v, ok := <-acks:
				if !ok {
					res := <-ackDone
					return fail(res.err)
				}
				if v > acked {
					acked = v
					if int(acked) > stats.FramesAcked {
						stats.FramesAcked = int(acked)
					}
				}
				continue
			default:
			}
			break
		}
		frame, ferr := src.Frame(int(next))
		if ferr != nil {
			return fail(ferr)
		}
		conn.SetWriteDeadline(time.Now().Add(cfg.AttemptTimeout))
		if err := writeMsg(bw, MsgFrame, encodeFrameMsg(next, frame)); err != nil {
			return fail(err)
		}
		if err := bw.Flush(); err != nil {
			return fail(err)
		}
		stats.FramesSent++
		next++
	}
	conn.SetWriteDeadline(time.Now().Add(cfg.AttemptTimeout))
	if err := writeMsg(bw, MsgDone, binary.AppendUvarint(nil, total)); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	// Wait for Bye (acks may still arrive first).
	for {
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case v, ok := <-acks:
			if !ok {
				res := <-ackDone
				if res.bye {
					stats.FramesAcked = int(total)
					return true, true, nil
				}
				return fail(res.err)
			}
			if v > acked {
				acked = v
				if int(acked) > stats.FramesAcked {
					stats.FramesAcked = int(acked)
				}
			}
		}
	}
}
