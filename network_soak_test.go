package ormprof

// Network soak: the ormpd service layer under injected network faults.
// A client pushes a recorded workload trace into a live server while the
// schedule kills and restarts the daemon mid-stream, resets connections
// mid-frame, stalls reads against deadlines, tears writes in half, and
// refuses connections outright. The contract: every fault class ends in
// either a clean retry that completes the stream or a typed degraded
// error — never a hang, an escaped panic, or a goroutine leak — and a
// killed-and-resumed run's profiles are byte-identical to an
// uninterrupted run's, at every worker count of the offline reference.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ormprof/internal/faultinject"
	"ormprof/internal/leap"
	"ormprof/internal/serve"
	"ormprof/internal/stride"
	"ormprof/internal/testutil"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
)

// netSoakFrames records a workload and cuts it into standalone frames.
func netSoakFrames(t testing.TB, name string, batch int) (serve.SliceFrames, map[trace.SiteID]string, *trace.Buffer) {
	t.Helper()
	buf, sites, _ := recordWorkload(t, name)
	events := buf.Events
	var frames serve.SliceFrames
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
	return frames, sites, buf
}

// offlineReference builds the three profile artifacts the offline tools
// would produce for the same events at the given worker count — their
// NewParallel profilers, one drain each, Profile, Err — through the same
// serializations the daemon uses.
func offlineReference(t testing.TB, name string, buf *trace.Buffer, sites map[trace.SiteID]string, workers int) map[string][]byte {
	t.Helper()
	wp, err := drainAnalysis(context.Background(), name, buf.Source(), whomp.NewParallel(sites, workers))
	if err != nil {
		t.Fatal(err)
	}
	lp, err := drainAnalysis(context.Background(), name, buf.Source(), leap.NewParallel(sites, 0, workers))
	if err != nil {
		t.Fatal(err)
	}
	ideal := stride.NewIdeal()
	buf.Replay(ideal)
	out := make(map[string][]byte)
	var w bytes.Buffer
	if _, err := wp.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	out[".whomp"] = append([]byte(nil), w.Bytes()...)
	w.Reset()
	if _, err := lp.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	out[".leap"] = append([]byte(nil), w.Bytes()...)
	w.Reset()
	bw := bufio.NewWriter(&w)
	if err := serve.WriteStrideReport(bw, ideal.StronglyStrided(), stride.FromLEAP(lp)); err != nil {
		t.Fatal(err)
	}
	out[".stride"] = append([]byte(nil), w.Bytes()...)
	return out
}

type netSoakServer struct {
	srv  *serve.Server
	addr string
	done chan error
}

func startNetSoakServer(t testing.TB, addr string, cfg serve.Config) *netSoakServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &netSoakServer{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	return s
}

func readProfileArtifacts(t testing.TB, dir, workload string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, ext := range []string{".whomp", ".leap", ".stride"} {
		b, err := os.ReadFile(filepath.Join(dir, workload+ext))
		if err != nil {
			t.Fatalf("artifact %s: %v", ext, err)
		}
		out[ext] = b
	}
	return out
}

// TestSoakNetKillRestartResume kills the daemon mid-stream — no goodbye,
// no flush, in-memory state gone — restarts it with -resume semantics,
// and requires the finished profiles to be byte-identical to an
// uninterrupted offline run at every worker count.
func TestSoakNetKillRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	const workload = "linkedlist"
	frames, sites, buf := netSoakFrames(t, workload, 64)
	ckDir := filepath.Join(t.TempDir(), "ck")
	outDir := filepath.Join(t.TempDir(), "out")
	cfg := serve.Config{
		CheckpointDir: ckDir, OutputDir: outDir,
		CheckpointEvery: 2, CheckpointInterval: 10 * time.Millisecond,
	}
	ccfg := serve.ClientConfig{
		SessionID: "soak-kr", Workload: workload, Sites: sites,
		MaxAttempts: 50, BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
	}

	s1 := startNetSoakServer(t, "127.0.0.1:0", cfg)
	ccfg.Addr = s1.addr
	pushDone := make(chan error, 1)
	go func() {
		_, err := serve.Push(context.Background(), ccfg, frames)
		pushDone <- err
	}()
	// Kill as soon as at least one checkpoint is durable.
	ckPath := filepath.Join(ckDir, "soak-kr.ckpt")
	waitFor := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(waitFor) {
			t.Fatal("no checkpoint appeared before the kill")
		}
		time.Sleep(time.Millisecond)
	}
	s1.srv.Kill()
	<-s1.done

	// Restart on the same address with resume; the client's retry loop
	// reconnects on its own and finishes the stream.
	rcfg := cfg
	rcfg.Resume = true
	s2 := startNetSoakServer(t, s1.addr, rcfg)
	if err := <-pushDone; err != nil {
		t.Fatalf("push across kill/restart: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s2.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-s2.done

	got := readProfileArtifacts(t, outDir, workload)
	for _, workers := range []int{1, 2, 8} {
		want := offlineReference(t, workload, buf, sites, workers)
		for ext, b := range want {
			if !bytes.Equal(got[ext], b) {
				t.Errorf("workers=%d %s: resumed daemon output differs from offline run", workers, ext)
			}
		}
	}
}

// TestSoakNetFaultClasses drives the client through every injected
// network fault class — connection resets mid-frame, stalled reads,
// partial writes, refused connections — on its first attempts, then lets
// it through. Each class must end in a clean retry, a complete stream,
// and profiles byte-identical to the offline reference.
func TestSoakNetFaultClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	const workload = "linkedlist"
	frames, sites, buf := netSoakFrames(t, workload, 64)
	want := offlineReference(t, workload, buf, sites, 2)

	classes := []struct {
		name string
		wrap func(attempt int, conn net.Conn) net.Conn
	}{
		{"reset-mid-handshake", func(a int, c net.Conn) net.Conn {
			if a <= 2 {
				return faultinject.ResetAfterBytes(c, 3)
			}
			return c
		}},
		{"reset-mid-frame", func(a int, c net.Conn) net.Conn {
			if a <= 2 {
				// Past the preamble and hello, inside the frame stream.
				return faultinject.ResetAfterBytes(c, int64(200+a*700))
			}
			return c
		}},
		{"stalled-read", func(a int, c net.Conn) net.Conn {
			if a == 1 {
				// Acks stall past the attempt timeout; the read deadline
				// must cut the stall, not hang.
				return faultinject.StallConn(c, 1, 2*time.Second)
			}
			return c
		}},
		{"partial-write", func(a int, c net.Conn) net.Conn {
			if a <= 2 {
				return faultinject.PartialWrite(c, 3)
			}
			return c
		}},
	}
	for i, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			outDir := filepath.Join(t.TempDir(), "out")
			s := startNetSoakServer(t, "127.0.0.1:0", serve.Config{
				CheckpointDir: filepath.Join(t.TempDir(), "ck"), OutputDir: outDir,
				CheckpointEvery: 4, CheckpointInterval: 10 * time.Millisecond,
			})
			addr := s.addr
			dial := faultinject.FaultyDialer(func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 2*time.Second)
			}, tc.wrap)
			stats, err := serve.Push(context.Background(), serve.ClientConfig{
				Dial:      func(ctx context.Context) (net.Conn, error) { return dial() },
				SessionID: "soak-fault", Workload: workload, Sites: sites,
				MaxAttempts: 20, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
				AttemptTimeout: 500 * time.Millisecond, JitterSeed: int64(i + 1),
			}, frames)
			if err != nil {
				t.Fatalf("push under %s: %v", tc.name, err)
			}
			if stats.Attempts < 2 {
				t.Errorf("%s: fault did not force a retry (%d attempts)", tc.name, stats.Attempts)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			<-s.done
			got := readProfileArtifacts(t, outDir, workload)
			for ext, b := range want {
				if !bytes.Equal(got[ext], b) {
					t.Errorf("%s %s: output differs from offline reference", tc.name, ext)
				}
			}
		})
	}
}

// TestSoakNetRefusedConnections covers the listener-refusing-accepts
// class: the first connections are accepted and immediately closed, and
// the client must retry through to a complete stream.
func TestSoakNetRefusedConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	const workload = "linkedlist"
	frames, sites, buf := netSoakFrames(t, workload, 128)
	want := offlineReference(t, workload, buf, sites, 1)

	outDir := filepath.Join(t.TempDir(), "out")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(faultinject.RefuseListener(ln, 3), serve.Config{
		CheckpointDir: filepath.Join(t.TempDir(), "ck"), OutputDir: outDir,
		CheckpointEvery: 8, CheckpointInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	stats, err := serve.Push(context.Background(), serve.ClientConfig{
		Addr: ln.Addr().String(), SessionID: "soak-refuse", Workload: workload, Sites: sites,
		MaxAttempts: 20, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		AttemptTimeout: 500 * time.Millisecond,
	}, frames)
	if err != nil {
		t.Fatalf("push through refusals: %v", err)
	}
	if stats.Attempts < 2 {
		t.Errorf("refusals did not force a retry (%d attempts)", stats.Attempts)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	got := readProfileArtifacts(t, outDir, workload)
	for ext, b := range want {
		if !bytes.Equal(got[ext], b) {
			t.Errorf("%s: output differs from offline reference", ext)
		}
	}
}

// TestSoakNetExhaustionTyped: when the network never heals, the client
// must give up with the typed ExhaustedError — the degraded exit, not a
// hang — and leave no goroutines behind.
func TestSoakNetExhaustionTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	frames, sites, _ := netSoakFrames(t, "linkedlist", 256)
	dial := faultinject.FaultyDialer(func() (net.Conn, error) {
		return nil, faultinject.ErrRefused
	}, func(int, net.Conn) net.Conn { panic("unreachable") })
	start := time.Now()
	_, err := serve.Push(context.Background(), serve.ClientConfig{
		Dial:      func(ctx context.Context) (net.Conn, error) { return dial() },
		SessionID: "soak-dead", Workload: "linkedlist", Sites: sites,
		MaxAttempts: 4, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		AttemptTimeout: 100 * time.Millisecond,
	}, frames)
	var ex *serve.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want ExhaustedError, got %v", err)
	}
	if !errors.Is(err, faultinject.ErrRefused) {
		t.Errorf("ExhaustedError does not carry the underlying cause: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("exhaustion took %v — backoff runaway", elapsed)
	}
}
