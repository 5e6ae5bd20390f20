package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ormprof/internal/checkpoint"
	"ormprof/internal/testutil"
	"ormprof/internal/trace"
)

// TestRingEpochs: add/remove build successor rings with the epoch
// advanced, originals untouched, and degenerate changes refused.
func TestRingEpochs(t *testing.T) {
	r1, err := newRing([]string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.epoch != 1 {
		t.Fatalf("fresh ring epoch = %d, want 1", r1.epoch)
	}
	r2, err := r1.add("c:1")
	if err != nil {
		t.Fatal(err)
	}
	if r2.epoch != 2 || !r2.contains("c:1") {
		t.Errorf("added ring: epoch %d contains(c)=%v", r2.epoch, r2.contains("c:1"))
	}
	if r1.epoch != 1 || r1.contains("c:1") {
		t.Errorf("original ring mutated by add")
	}
	r3, err := r2.remove("a:1")
	if err != nil {
		t.Fatal(err)
	}
	if r3.epoch != 3 || r3.contains("a:1") {
		t.Errorf("removed ring: epoch %d contains(a)=%v", r3.epoch, r3.contains("a:1"))
	}
	if _, err := r1.add("a:1"); err == nil {
		t.Error("adding an existing shard succeeded")
	}
	if _, err := r1.remove("x:1"); err == nil {
		t.Error("removing an unknown shard succeeded")
	}
	one, _ := newRing([]string{"solo:1"})
	if _, err := one.remove("solo:1"); err == nil {
		t.Error("removing the last shard succeeded")
	}
	// Consistent hashing: sessions not owned by the removed shard keep
	// their primary across the change.
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("s-%d", i)
		if p := r2.primary(s); p != "a:1" && r3.primary(s) != p {
			t.Fatalf("session %s moved from %s to %s though a:1 was removed", s, p, r3.primary(s))
		}
	}
}

// TestRetryRedirectWire: the Retry body's optional redirect address
// round-trips, and the bare form stays a single uvarint for old readers.
func TestRetryRedirectWire(t *testing.T) {
	for _, tc := range []struct {
		ms   uint64
		addr string
	}{{250, ""}, {0, "10.0.0.9:7417"}, {1000, "active:1"}} {
		ms, addr, err := decodeRetry(encodeRetry(tc.ms, tc.addr))
		if err != nil {
			t.Fatalf("decodeRetry(%d,%q): %v", tc.ms, tc.addr, err)
		}
		if ms != tc.ms || addr != tc.addr {
			t.Errorf("round trip (%d,%q) = (%d,%q)", tc.ms, tc.addr, ms, addr)
		}
	}
	if got := encodeRetry(250, ""); len(got) != len(binary.AppendUvarint(nil, 250)) {
		t.Errorf("bare Retry body grew to %d bytes", len(got))
	}
	if _, _, err := decodeRetry(append(encodeRetry(5, "a:1"), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, _, err := decodeRetry(nil); err == nil {
		t.Error("empty body accepted")
	}
}

// startAdmin attaches an admin listener to a running router and returns
// its address. The listener is owned by the router from here on —
// Shutdown/Kill close it.
func startAdmin(t *testing.T, r *Router) string {
	t.Helper()
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.ServeAdmin(aln) }()
	t.Cleanup(func() {
		if err := <-done; err != nil {
			t.Errorf("admin serve: %v", err)
		}
	})
	return aln.Addr().String()
}

// TestAdminPlane: status, epoch-CAS add/remove, duplicate refusal, and
// push/pull over a live ORMA/1 connection.
func TestAdminPlane(t *testing.T) {
	testutil.LeakCheck(t)
	live := startServer(t, Config{})
	rh := startRouter(t, RouterConfig{Shards: []string{live.addr}})
	admin := startAdmin(t, rh.r)

	st, err := AdminFetchTable(admin, time.Second)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Epoch != 1 || len(st.Shards) != 1 || st.Shards[0] != live.addr {
		t.Fatalf("status = epoch %d shards %v", st.Epoch, st.Shards)
	}

	extra := deadAddr(t)
	// Wrong epoch first: refused with the typed error, nothing applied.
	var se *StaleEpochError
	if _, err := AdminShardCmd(admin, true, 7, extra, time.Second); !errors.As(err, &se) {
		t.Fatalf("add at wrong epoch: err = %v, want StaleEpochError", err)
	} else if se.Have != 1 || se.Got != 7 {
		t.Errorf("stale error carries have=%d got=%d", se.Have, se.Got)
	}
	newEpoch, err := AdminShardCmd(admin, true, 1, extra, time.Second)
	if err != nil || newEpoch != 2 {
		t.Fatalf("add at epoch 1: epoch=%d err=%v", newEpoch, err)
	}
	// The duplicate of an applied command presents the epoch it already
	// consumed and must be refused, not applied twice.
	if _, err := AdminShardCmd(admin, true, 1, extra, time.Second); !errors.As(err, &se) {
		t.Fatalf("duplicate add: err = %v, want StaleEpochError", err)
	}
	if got := rh.r.Epoch(); got != 2 {
		t.Fatalf("epoch after add+duplicate = %d, want 2", got)
	}
	if _, err := AdminShardCmd(admin, false, 2, extra, time.Second); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if got, want := rh.r.Shards(), []string{live.addr}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("shards after remove = %v", got)
	}

	// Push/pull: a pushed v2 table applies unless stale.
	push := &checkpoint.RouterState{Epoch: 9, Shards: []string{live.addr, extra}}
	if err := AdminPushTable(admin, push, time.Second); err != nil {
		t.Fatalf("push: %v", err)
	}
	if got := rh.r.Epoch(); got != 9 {
		t.Fatalf("epoch after push = %d, want 9", got)
	}
	stale := &checkpoint.RouterState{Epoch: 4, Shards: []string{live.addr}}
	if err := AdminPushTable(admin, stale, time.Second); !errors.As(err, &se) {
		t.Fatalf("stale push: err = %v, want StaleEpochError", err)
	}
	pulled, err := AdminPullTable(admin, 1, time.Second)
	if err != nil || pulled.Epoch != 9 {
		t.Fatalf("pull: epoch=%d err=%v", pulled.Epoch, err)
	}

	rh.shutdown(t)
	live.shutdown(t)
}

// TestRouterHoldRelease: a held session is refused with Retry until
// released; other sessions route normally throughout.
func TestRouterHoldRelease(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, _ := makeFrames(t, "linkedlist", 256)
	live := startServer(t, Config{})
	rh := startRouter(t, RouterConfig{Shards: []string{live.addr}, RetryAfter: time.Millisecond})

	rh.r.Hold("held-session")
	push := func(id string, attempts int) (ClientStats, error) {
		return Push(context.Background(), ClientConfig{
			Addr: rh.addr, SessionID: id, Workload: "linkedlist", Sites: sites,
			MaxAttempts: attempts, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		}, frames)
	}
	var ex *ExhaustedError
	if _, err := push("held-session", 2); !errors.As(err, &ex) {
		t.Fatalf("held session push: err = %v, want ExhaustedError", err)
	}
	if _, err := push("free-session", 8); err != nil {
		t.Fatalf("unrelated session while hold active: %v", err)
	}
	rh.r.Release("held-session")
	if _, err := push("held-session", 8); err != nil {
		t.Fatalf("after release: %v", err)
	}
	rh.shutdown(t)
	live.shutdown(t)
}

// TestStandbyRedirect: a standby router refuses ingest with a redirect
// hint naming the active, and the client follows the hint — the stream
// completes even though the client was pointed only at the standby.
func TestStandbyRedirect(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, _ := makeFrames(t, "linkedlist", 256)
	live := startServer(t, Config{})
	activeRh := startRouter(t, RouterConfig{Shards: []string{live.addr}})
	standbyRh := startRouter(t, RouterConfig{
		Shards: []string{live.addr}, Standby: true,
		ActiveAddr: activeRh.addr, RetryAfter: time.Millisecond,
	})
	stats, err := Push(context.Background(), ClientConfig{
		Addr: standbyRh.addr, SessionID: "redirected", Workload: "linkedlist", Sites: sites,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	}, frames)
	if err != nil {
		t.Fatalf("push against standby: %v", err)
	}
	if stats.FramesAcked != len(frames) {
		t.Errorf("acked %d of %d frames", stats.FramesAcked, len(frames))
	}
	if stats.Retries == 0 {
		t.Errorf("push never saw the standby's refusal (retries=0)")
	}
	// After promotion the same router serves directly.
	standbyRh.r.Promote()
	if _, err := Push(context.Background(), ClientConfig{
		Addr: standbyRh.addr, SessionID: "post-promote", Workload: "linkedlist", Sites: sites,
	}, frames); err != nil {
		t.Fatalf("push against promoted router: %v", err)
	}
	standbyRh.shutdown(t)
	activeRh.shutdown(t)
	live.shutdown(t)
}

// TestApplyTableGuards: stale and legacy tables are refused, applied
// tables install ring and placements.
func TestApplyTableGuards(t *testing.T) {
	testutil.LeakCheck(t)
	rh := startRouter(t, RouterConfig{Shards: []string{"a:1"}})
	if err := rh.r.ApplyTable(&checkpoint.RouterState{Routes: map[string]string{"s": "a:1"}}); err == nil {
		t.Error("legacy epoch-0 table applied")
	}
	good := &checkpoint.RouterState{Epoch: 5, Shards: []string{"a:1", "b:1"}, Routes: map[string]string{"s": "b:1"}}
	if err := rh.r.ApplyTable(good); err != nil {
		t.Fatalf("apply: %v", err)
	}
	var se *StaleEpochError
	if err := rh.r.ApplyTable(&checkpoint.RouterState{Epoch: 3, Shards: []string{"a:1"}}); !errors.As(err, &se) {
		t.Fatalf("stale apply: err = %v, want StaleEpochError", err)
	}
	st := rh.r.State()
	if st.Epoch != 5 || st.Routes["s"] != "b:1" {
		t.Errorf("state after apply = epoch %d routes %v", st.Epoch, st.Routes)
	}
	rh.shutdown(t)
}

// rawSession opens a bare ORMP/1 connection, completes the handshake, and
// streams the first n frames without Done — then hangs up, leaving an
// incomplete parked session on the server. Returns the acked cursor.
func rawSession(t *testing.T, addr, id string, frames SliceFrames, sites map[trace.SiteID]string, n int) uint64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	bw.WriteString(ProtoMagic)
	if err := writeMsg(bw, MsgHello, encodeHello(&Hello{SessionID: id, Workload: "linkedlist", Sites: sites})); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	mt, body, err := readMsg(br)
	if err != nil || mt != MsgWelcome {
		t.Fatalf("handshake: mt=%v err=%v", mt, err)
	}
	cursor, err := parseUvarintBody(mt, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := int(cursor); i < n; i++ {
		if err := writeMsg(bw, MsgFrame, encodeFrameMsg(uint64(i), frames[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for the acks so the state is applied and durable before the
	// abrupt hangup — the migration then has real progress to carry.
	acked := cursor
	for acked < uint64(n) {
		mt, body, err := readMsg(br)
		if err != nil {
			t.Fatalf("reading ack: %v", err)
		}
		if mt != MsgAck {
			t.Fatalf("expected Ack, got %v", mt)
		}
		if v, err := parseUvarintBody(mt, body); err == nil && v > acked {
			acked = v
		}
	}
	return acked
}

// TestHandoffAdoptForget: the shard-side migration triple moves a parked
// session between two servers with its durable progress intact, and the
// client completes the stream on the destination with no re-ingest of the
// already-acked prefix.
func TestHandoffAdoptForget(t *testing.T) {
	testutil.LeakCheck(t)
	frames, sites, _ := makeFrames(t, "linkedlist", 64)
	if len(frames) < 4 {
		t.Fatalf("need at least 4 frames, have %d", len(frames))
	}
	finalA := filepath.Join(t.TempDir(), "finalA")
	finalB := filepath.Join(t.TempDir(), "finalB")
	srcSrv := startServer(t, Config{CheckpointEvery: 1, FinalDir: finalA})
	dstSrv := startServer(t, Config{CheckpointEvery: 1, FinalDir: finalB})

	const id = "mover"
	half := len(frames) / 2
	acked := rawSession(t, srcSrv.addr, id, frames, sites, half)
	if acked != uint64(half) {
		t.Fatalf("acked %d, want %d", acked, half)
	}

	// The park is driven by the server noticing the hangup; Handoff races
	// that internally (it waits on the release channel), so no sleep.
	state, err := srcSrv.srv.Handoff(id)
	if err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if state.FramesApplied != uint64(half) {
		t.Errorf("handoff state at frame %d, want %d", state.FramesApplied, half)
	}
	if err := dstSrv.srv.Adopt(state); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	// Destination is durable before the source forgets: the checkpoint
	// file must already exist.
	if _, err := os.Stat(checkpoint.PathFor(dstSrv.ckDir, id)); err != nil {
		t.Fatalf("destination checkpoint after adopt: %v", err)
	}
	if err := dstSrv.srv.Adopt(state); err == nil {
		t.Error("double adopt succeeded; split brain")
	}
	if err := srcSrv.srv.Forget(id); err != nil {
		t.Fatalf("forget: %v", err)
	}
	if _, err := os.Stat(checkpoint.PathFor(srcSrv.ckDir, id)); !os.IsNotExist(err) {
		t.Errorf("source checkpoint survives forget: %v", err)
	}
	if got := srcSrv.srv.SessionIDs(); len(got) != 0 {
		t.Errorf("source still lists %v", got)
	}
	if got := dstSrv.srv.SessionIDs(); len(got) != 1 || got[0] != id {
		t.Errorf("destination lists %v", got)
	}

	// The client finishes against the destination; the server's cursor
	// must spare it the first half.
	stats, err := Push(context.Background(), ClientConfig{
		Addr: dstSrv.addr, SessionID: id, Workload: "linkedlist", Sites: sites,
	}, frames)
	if err != nil {
		t.Fatalf("completing on destination: %v", err)
	}
	if stats.FramesAcked != len(frames) {
		t.Errorf("acked %d of %d", stats.FramesAcked, len(frames))
	}
	if stats.FramesSent > len(frames)-half {
		t.Errorf("re-sent %d frames; cursor should have limited it to %d", stats.FramesSent, len(frames)-half)
	}
	dstSrv.shutdown(t)
	srcSrv.shutdown(t)
	// Exactly one final, on the destination.
	if ents, _ := os.ReadDir(finalA); len(ents) != 0 {
		t.Errorf("source wrote %d final state(s)", len(ents))
	}
	if ents, _ := os.ReadDir(finalB); len(ents) != 1 {
		t.Errorf("destination wrote %d final state(s), want 1", len(ents))
	}
}

// TestHandoffUnknownAndBusy: the error paths — unknown session, and a
// second handoff while one is in flight.
func TestHandoffGuards(t *testing.T) {
	testutil.LeakCheck(t)
	srv := startServer(t, Config{})
	if _, err := srv.srv.Handoff("nobody"); err == nil {
		t.Error("handoff of unknown session succeeded")
	}
	if err := srv.srv.Forget("nobody"); err == nil {
		t.Error("forget without handoff succeeded")
	}
	if err := srv.srv.Adopt(nil); err == nil {
		t.Error("adopt of nil state succeeded")
	}
	srv.shutdown(t)
}
