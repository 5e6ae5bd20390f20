package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ormprof/internal/memsim"
	"ormprof/internal/testutil"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/workloads"
)

// makeFrames records a workload and slices its events into standalone
// v3 frames of the given batch size.
func makeFrames(t testing.TB, name string, batch int) (SliceFrames, map[trace.SiteID]string, []trace.Event) {
	t.Helper()
	prog, err := workloads.New(name, workloads.Config{Scale: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	m := memsim.Run(prog, buf)
	events := buf.Events
	var frames SliceFrames
	for i := 0; i < len(events); i += batch {
		end := i + batch
		if end > len(events) {
			end = len(events)
		}
		f, err := tracefmt.EncodeFrame(events[i:end])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames, m.StaticSites(), events
}

type testServer struct {
	srv    *Server
	addr   string
	ckDir  string
	outDir string
	done   chan error
}

func startServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	}
	if cfg.OutputDir == "" {
		cfg.OutputDir = filepath.Join(t.TempDir(), "out")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{srv: srv, addr: ln.Addr().String(),
		ckDir: cfg.CheckpointDir, outDir: cfg.OutputDir, done: make(chan error, 1)}
	go func() { ts.done <- srv.Serve() }()
	return ts
}

func (ts *testServer) shutdown(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := <-ts.done; err != nil {
		t.Errorf("serve: %v", err)
	}
}

func readArtifacts(t *testing.T, dir, workload string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, ext := range []string{".whomp", ".leap", ".stride"} {
		b, err := os.ReadFile(filepath.Join(dir, sanitizeName(workload)+ext))
		if err != nil {
			t.Fatalf("artifact %s: %v", ext, err)
		}
		out[ext] = b
	}
	return out
}

func TestWireHelloRoundTrip(t *testing.T) {
	h := &Hello{
		SessionID: "sess-1",
		Workload:  "linkedlist",
		Sites:     map[trace.SiteID]string{3: "node", 7: "head"},
	}
	got, err := decodeHello(encodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Errorf("round trip: got %+v want %+v", got, h)
	}
	for name, body := range map[string][]byte{
		"empty":      {},
		"no-session": encodeHello(&Hello{SessionID: "", Workload: "w"}),
		"trailing":   append(encodeHello(h), 0),
		"truncated":  encodeHello(h)[:4],
	} {
		if _, err := decodeHello(body); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: want ErrProtocol, got %v", name, err)
		}
	}
}

// TestWireRejectsPaddedVarint: ORMP/1 Hello and ORMA/1 shard-command
// bodies whose first varint is padded to a non-minimal two-byte form are
// protocol errors (docs/FORMATS.md, "Varints").
func TestWireRejectsPaddedVarint(t *testing.T) {
	hello := []byte{0x02, 's', '1', 0x01, 'w', 0x00}
	if _, err := decodeHello(hello); err != nil {
		t.Fatalf("minimal Hello: %v", err)
	}
	if _, err := decodeHello(append([]byte{0x82, 0x00}, hello[1:]...)); !errors.Is(err, ErrProtocol) {
		t.Errorf("padded Hello: err %v, want ErrProtocol", err)
	}
	cmd := encodeShardCmd(5, "h:1")
	if _, _, err := decodeShardCmd(cmd); err != nil {
		t.Fatalf("minimal shard command: %v", err)
	}
	if _, _, err := decodeShardCmd(append([]byte{0x85, 0x00}, cmd[1:]...)); !errors.Is(err, ErrProtocol) {
		t.Errorf("padded shard command: err %v, want ErrProtocol", err)
	}
}

func TestPushCompleteStream(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, events := makeFrames(t, "linkedlist", 256)
	ts := startServer(t, Config{CheckpointEvery: 4, CheckpointInterval: 50 * time.Millisecond})
	stats, err := Push(context.Background(), ClientConfig{
		Addr: ts.addr, SessionID: "s1", Workload: "linkedlist", Sites: sites,
	}, frames)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if stats.FramesAcked != len(frames) {
		t.Errorf("acked %d of %d frames", stats.FramesAcked, len(frames))
	}
	ts.shutdown(t)

	got := readArtifacts(t, ts.outDir, "linkedlist")
	// The daemon's profiles must match an offline run over the same events.
	want := offlineArtifacts(t, "linkedlist", sites, events)
	for ext, b := range want {
		if !bytes.Equal(got[ext], b) {
			t.Errorf("%s: daemon output differs from offline run", ext)
		}
	}
	// A completed session retires its checkpoint.
	if _, err := os.Stat(filepath.Join(ts.ckDir, "s1.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not removed after completion: %v", err)
	}
}

// offlineArtifacts runs the same events through a fresh pipeline and the
// shared serializers — the reference the daemon must match.
func offlineArtifacts(t *testing.T, workload string, sites map[trace.SiteID]string, events []trace.Event) map[string][]byte {
	t.Helper()
	p := newPipeline(workload, sites, 0, nil, 0, false, false)
	p.applyFrame(events)
	dir := t.TempDir()
	if err := p.writeProfiles(dir); err != nil {
		t.Fatal(err)
	}
	return readArtifacts(t, dir, workload)
}

func TestAdmissionRetry(t *testing.T) {
	testutil.LeakCheck(t)
	ts := startServer(t, Config{MaxSessions: 1, RetryAfter: 5 * time.Millisecond})
	defer ts.shutdown(t)

	// First connection occupies the only slot.
	c1, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	br1 := bufio.NewReader(c1)
	bw1 := bufio.NewWriter(c1)
	c1.Write([]byte(ProtoMagic))
	writeMsg(bw1, MsgHello, encodeHello(&Hello{SessionID: "a", Workload: "w"}))
	bw1.Flush()
	if mt, _, err := readMsg(br1); err != nil || mt != MsgWelcome {
		t.Fatalf("first conn: got %v %v, want Welcome", mt, err)
	}

	// Second connection must be told to retry, with a parseable hint.
	c2, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	br2 := bufio.NewReader(c2)
	bw2 := bufio.NewWriter(c2)
	c2.Write([]byte(ProtoMagic))
	writeMsg(bw2, MsgHello, encodeHello(&Hello{SessionID: "b", Workload: "w"}))
	bw2.Flush()
	mt, body, err := readMsg(br2)
	if err != nil || mt != MsgRetry {
		t.Fatalf("second conn: got %v %v, want Retry", mt, err)
	}
	if ms, err := parseUvarintBody(mt, body); err != nil || ms != 5 {
		t.Errorf("retry hint: got %d %v, want 5ms", ms, err)
	}

	// Same session ID while connected is also refused.
	c3, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	t.Cleanup(func() { c1.Close(); c2.Close(); c3.Close() })
	br3 := bufio.NewReader(c3)
	bw3 := bufio.NewWriter(c3)
	c3.Write([]byte(ProtoMagic))
	writeMsg(bw3, MsgHello, encodeHello(&Hello{SessionID: "a", Workload: "w"}))
	bw3.Flush()
	if mt, _, _ := readMsg(br3); mt != MsgRetry {
		t.Fatalf("duplicate session conn: got %v, want Retry", mt)
	}
}

func TestFrameGapRejected(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, _ := makeFrames(t, "linkedlist", 512)
	ts := startServer(t, Config{})
	defer ts.shutdown(t)

	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	conn.Write([]byte(ProtoMagic))
	writeMsg(bw, MsgHello, encodeHello(&Hello{SessionID: "gap", Workload: "w", Sites: sites}))
	bw.Flush()
	if mt, _, err := readMsg(br); err != nil || mt != MsgWelcome {
		t.Fatalf("handshake: %v %v", mt, err)
	}
	// Frame 0, duplicate frame 0 (ignored), then a gap to frame 5.
	writeMsg(bw, MsgFrame, encodeFrameMsg(0, frames[0]))
	writeMsg(bw, MsgFrame, encodeFrameMsg(0, frames[0]))
	writeMsg(bw, MsgFrame, encodeFrameMsg(5, frames[1]))
	bw.Flush()
	mt, body, err := readMsg(br)
	if err != nil {
		t.Fatalf("expected Err, got %v", err)
	}
	if mt != MsgErr {
		t.Fatalf("expected Err after gap, got %s %q", mt, body)
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, _ := makeFrames(t, "linkedlist", 512)
	ts := startServer(t, Config{})
	defer ts.shutdown(t)

	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	conn.Write([]byte(ProtoMagic))
	writeMsg(bw, MsgHello, encodeHello(&Hello{SessionID: "crc", Workload: "w", Sites: sites}))
	bw.Flush()
	if mt, _, err := readMsg(br); err != nil || mt != MsgWelcome {
		t.Fatalf("handshake: %v %v", mt, err)
	}
	bad := append([]byte(nil), frames[0]...)
	bad[len(bad)/2] ^= 0x40
	writeMsg(bw, MsgFrame, encodeFrameMsg(0, bad))
	bw.Flush()
	if mt, _, err := readMsg(br); err != nil || mt != MsgErr {
		t.Fatalf("expected Err for corrupt frame, got %v %v", mt, err)
	}
}

// TestKillResumeByteIdentical is the core durability property: kill the
// server mid-stream (no goodbye, no flush), restart it with -resume
// semantics, push again, and the final profiles must be byte-identical
// to an uninterrupted run.
func TestKillResumeByteIdentical(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, events := makeFrames(t, "linkedlist", 64)
	ckDir := filepath.Join(t.TempDir(), "ck")
	outDir := filepath.Join(t.TempDir(), "out")

	ts1 := startServer(t, Config{
		CheckpointDir: ckDir, OutputDir: outDir,
		CheckpointEvery: 2, CheckpointInterval: 20 * time.Millisecond,
	})
	ckPath := filepath.Join(ckDir, "kr.ckpt")
	pushErr := make(chan error, 1)
	go func() {
		_, err := Push(context.Background(), ClientConfig{
			Addr: ts1.addr, SessionID: "kr", Workload: "linkedlist", Sites: sites,
			MaxAttempts: 2, BackoffBase: 5 * time.Millisecond, AttemptTimeout: 2 * time.Second,
		}, frames)
		pushErr <- err
	}()
	// Kill once at least one checkpoint is durable.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	ts1.srv.Kill()
	<-ts1.done
	if err := <-pushErr; err == nil {
		// The client may legitimately have finished if the kill raced
		// the last frame; otherwise it must have failed.
		if _, statErr := os.Stat(ckPath); statErr == nil {
			t.Fatal("push succeeded but checkpoint still on disk")
		}
	}

	// Restart with resume; the client re-pushes and must complete.
	ts2 := startServer(t, Config{
		CheckpointDir: ckDir, OutputDir: outDir, Resume: true,
		CheckpointEvery: 2, CheckpointInterval: 20 * time.Millisecond,
	})
	stats, err := Push(context.Background(), ClientConfig{
		Addr: ts2.addr, SessionID: "kr", Workload: "linkedlist", Sites: sites,
	}, frames)
	if err != nil {
		t.Fatalf("resumed push: %v", err)
	}
	if stats.FramesAcked != len(frames) {
		t.Errorf("resumed push acked %d of %d", stats.FramesAcked, len(frames))
	}
	ts2.shutdown(t)

	got := readArtifacts(t, outDir, "linkedlist")
	want := offlineArtifacts(t, "linkedlist", sites, events)
	for ext, b := range want {
		if !bytes.Equal(got[ext], b) {
			t.Errorf("%s: resumed output differs from uninterrupted run", ext)
		}
	}
}

// TestShutdownFlushesPartial: a session interrupted by graceful shutdown
// leaves a durable checkpoint and partial profiles on disk.
func TestShutdownFlushesPartial(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, _ := makeFrames(t, "linkedlist", 128)
	ts := startServer(t, Config{CheckpointEvery: 1 << 30, CheckpointInterval: time.Hour})

	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	conn.Write([]byte(ProtoMagic))
	writeMsg(bw, MsgHello, encodeHello(&Hello{SessionID: "p", Workload: "partial", Sites: sites}))
	bw.Flush()
	if mt, _, err := readMsg(br); err != nil || mt != MsgWelcome {
		t.Fatalf("handshake: %v %v", mt, err)
	}
	writeMsg(bw, MsgFrame, encodeFrameMsg(0, frames[0]))
	writeMsg(bw, MsgFrame, encodeFrameMsg(1, frames[1]))
	bw.Flush()
	// No Done: shut down with a deadline that forces the drain to cut in.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	ts.srv.Shutdown(ctx)
	<-ts.done

	ck, err := os.Stat(filepath.Join(ts.ckDir, "p.ckpt"))
	if err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}
	if ck.Size() == 0 {
		t.Error("empty checkpoint")
	}
	readArtifacts(t, ts.outDir, "partial") // must all exist
}

// TestStalledClientParked: a client that goes silent is disconnected by
// the idle deadline; its state is checkpointed for a future reconnect.
func TestStalledClientParked(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, _ := makeFrames(t, "linkedlist", 128)
	ts := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	defer ts.shutdown(t)

	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	conn.Write([]byte(ProtoMagic))
	writeMsg(bw, MsgHello, encodeHello(&Hello{SessionID: "stall", Workload: "w", Sites: sites}))
	bw.Flush()
	if mt, _, err := readMsg(br); err != nil || mt != MsgWelcome {
		t.Fatalf("handshake: %v %v", mt, err)
	}
	writeMsg(bw, MsgFrame, encodeFrameMsg(0, frames[0]))
	bw.Flush()
	// Go silent. The server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, _, err := readMsg(br); err != nil {
			break
		}
	}
	// The parked state is durable and a reconnect resumes past frame 0.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(ts.ckDir, "stall.ckpt")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled session was not checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The checkpoint file is the reconnect signal, and it becomes visible
	// while the old handler may still own the session. Adoption is
	// race-free (a reconnect landing in that window waits for the
	// imminent release), so a single immediate reconnect must succeed —
	// no Retry, no backoff loop.
	conn2, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	br2 := bufio.NewReader(conn2)
	bw2 := bufio.NewWriter(conn2)
	conn2.Write([]byte(ProtoMagic))
	writeMsg(bw2, MsgHello, encodeHello(&Hello{SessionID: "stall", Workload: "w", Sites: sites}))
	bw2.Flush()
	mt, body, err := readMsg(br2)
	if err != nil || mt != MsgWelcome {
		t.Fatalf("reconnect handshake: got %v %v, want Welcome", mt, err)
	}
	if cur, err := parseUvarintBody(mt, body); err != nil || cur != 1 {
		t.Errorf("resume cursor: got %d %v, want 1", cur, err)
	}
}

// TestClientExhaustedTyped: with no server at all, Push gives up with
// the typed ExhaustedError after its retry budget.
func TestClientExhaustedTyped(t *testing.T) {
	testutil.LeakCheck(t)
	frames := SliceFrames{[]byte("ignored")}
	_, err := Push(context.Background(), ClientConfig{
		Addr: "127.0.0.1:1", SessionID: "x",
		MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		AttemptTimeout: 200 * time.Millisecond,
	}, frames)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want ExhaustedError, got %v", err)
	}
	if ex.Attempts != 3 {
		t.Errorf("attempts: got %d want 3", ex.Attempts)
	}
}
