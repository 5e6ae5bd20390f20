package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ormprof/internal/checkpoint"
	"ormprof/internal/govern"
	"ormprof/internal/trace"
)

// DefaultRetryAfter is the backoff hint carried by Retry responses when
// Config.RetryAfter is unset. It is a named constant rather than a magic
// number inside withDefaults because the router must know it too: when a
// router refuses on behalf of a shard that has never supplied its own
// hint, this is the shared fallback both tiers agree on.
const DefaultRetryAfter = 500 * time.Millisecond

// Config configures a Server. Zero values select the documented defaults.
type Config struct {
	// CheckpointDir is where session checkpoints live (required).
	CheckpointDir string
	// OutputDir is where finished profiles are written (required).
	OutputDir string
	// FinalDir, when set, receives each completed session's final durable
	// state (<session>.final, same ORMCKPT container as checkpoints)
	// before the Bye goes out. These per-session final states are what
	// the cluster merge plane consumes: unlike the text profiles, they
	// reconstruct losslessly, so a cluster of N shards merges to the same
	// bytes a single node would have produced.
	FinalDir string
	// Resume loads existing checkpoints from CheckpointDir at startup, so
	// returning clients continue from their durable cursor.
	Resume bool

	// MaxSessions bounds concurrently connected sessions; connections
	// beyond it receive Retry. Default 16.
	MaxSessions int
	// MaxQueuedBytes bounds the total bytes of queued-but-unapplied
	// frames across all sessions; new connections beyond it receive
	// Retry. Default 64 MiB.
	MaxQueuedBytes int64
	// QueueFrames is the per-session frame queue capacity. When the
	// queue is full the session's reader stops reading the socket, so a
	// slow pipeline back-pressures the sender through TCP instead of
	// buffering without bound. Default 8.
	QueueFrames int
	// CheckpointEvery checkpoints after this many frames. Default 32.
	CheckpointEvery int
	// CheckpointInterval forces a checkpoint this long after the first
	// unacknowledged frame, so a client waiting on its ack window never
	// deadlocks against the frame-count cadence. Default 1s.
	CheckpointInterval time.Duration
	// IdleTimeout bounds each read from a client; a stalled connection
	// is checkpointed and parked rather than held open forever.
	// Default 30s.
	IdleTimeout time.Duration
	// RetryAfter is the backoff hint carried by Retry responses.
	// Default DefaultRetryAfter.
	RetryAfter time.Duration
	// MaxLMADs is the LEAP descriptor budget (≤ 0 = paper default).
	MaxLMADs int
	// SessionMemBudget bounds each session's accounted profiling
	// footprint; over it the session's pipeline steps down the
	// degradation ladder (0 = unlimited).
	SessionMemBudget int64
	// GlobalMemBudget bounds the accounted footprint summed across all
	// sessions. Over its watermark, new sessions are rejected with Retry
	// and the heaviest live session is stepped down first — largest
	// accounted footprint, ties broken by smallest session ID, so the
	// shedding choice is deterministic (0 = unlimited).
	GlobalMemBudget int64
	// ParentBudget, when set, becomes the parent of this server's
	// accounting root, so a cluster-wide budget sees the footprint summed
	// across every shard while each shard keeps its own GlobalMemBudget.
	ParentBudget *govern.Budget
	// OverBudget, when set, is consulted alongside the local global
	// watermark: a true return rejects new sessions with Retry and trips
	// the same heaviest-first shedding as a local budget breach. The
	// cluster uses it to push a fleet-wide budget decision down into the
	// shard that should degrade.
	OverBudget func() bool
	// Approx starts every new session's ladder directly at the
	// sketch-stride rung (approximate profiling, the CLI's -approx)
	// instead of full profiling. Resumed sessions keep their
	// checkpointed rung regardless.
	Approx bool
	// Logf, when set, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxSessions <= 0 {
		out.MaxSessions = 16
	}
	if out.MaxQueuedBytes <= 0 {
		out.MaxQueuedBytes = 64 << 20
	}
	if out.QueueFrames <= 0 {
		out.QueueFrames = 8
	}
	if out.CheckpointEvery <= 0 {
		out.CheckpointEvery = 32
	}
	if out.CheckpointInterval <= 0 {
		out.CheckpointInterval = time.Second
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 30 * time.Second
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = DefaultRetryAfter
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// sessionState is one session's profiling state, active or parked. A
// session survives its connections: a dropped connection parks the
// state in memory, and a reconnect with the same session ID adopts it.
type sessionState struct {
	id     string
	pl     *pipeline
	acked  uint64   // durable cursor: FramesApplied at the last checkpoint
	dirty  bool     // frames applied since the last checkpoint
	active bool     // a connection currently owns this session
	conn   net.Conn // the owning connection while active (migration closes it)

	// parting is set (under the server mutex) just before the owning
	// handler writes its final park checkpoint, and released is closed
	// when the handler gives the session up. Together they make
	// parked-session adoption race-free: the checkpoint file is the
	// client's signal to reconnect, but it becomes visible while the old
	// handler still owns the session — a reconnect landing in that window
	// waits for the imminent release instead of bouncing with Retry.
	// A session that is active and NOT parting is a live duplicate and
	// still draws Retry.
	parting  bool
	released chan struct{}

	// stepReq asks the session's worker to step its ladder down at the
	// next frame boundary: global load shedding may not touch a ladder
	// owned by another goroutine directly.
	stepReq atomic.Bool

	// evbuf is the session's reusable frame-decode buffer. Only the
	// connection goroutine that owns the session touches it, and
	// applyFrame consumes the events synchronously, so one buffer per
	// session amortizes decode allocations to zero.
	evbuf []trace.Event
}

// Server is the ormpd ingestion service.
type Server struct {
	cfg Config
	ln  net.Listener

	mu        sync.Mutex
	sessions  map[string]*sessionState
	resumed   map[string]*checkpoint.State // disk checkpoints not yet adopted
	migrating map[string]bool              // sessions mid-handoff; reconnects draw Retry
	draining  bool
	drainCh   chan struct{} // closed when Shutdown begins
	killed    bool
	killCh    chan struct{} // closed by Kill
	conns     map[net.Conn]struct{}

	queuedBytes atomic.Int64
	wg          sync.WaitGroup

	// govRoot accounts the summed profiling footprint of every session.
	// Its own limit is 0 (pure accounting): the global trip is checked by
	// the server, which sheds the heaviest session deterministically,
	// rather than by whichever session happens to emit first.
	govRoot *govern.Budget
}

// New creates a Server listening on ln. With cfg.Resume it loads every
// readable checkpoint in cfg.CheckpointDir; corrupt checkpoints are
// skipped (those sessions restart from zero, which the protocol makes
// safe — the client simply re-sends everything).
func New(ln net.Listener, cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	if c.CheckpointDir == "" || c.OutputDir == "" {
		return nil, fmt.Errorf("serve: CheckpointDir and OutputDir are required")
	}
	dirs := []string{c.CheckpointDir, c.OutputDir}
	if c.FinalDir != "" {
		dirs = append(dirs, c.FinalDir)
	}
	for _, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	govRoot := govern.NewBudget(0)
	if c.ParentBudget != nil {
		govRoot = c.ParentBudget.Sub(0)
	}
	s := &Server{
		cfg:       c,
		ln:        ln,
		sessions:  make(map[string]*sessionState),
		resumed:   make(map[string]*checkpoint.State),
		migrating: make(map[string]bool),
		drainCh:   make(chan struct{}),
		killCh:    make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		govRoot:   govRoot,
	}
	if c.Resume {
		states, skipped, err := checkpoint.LoadDir(c.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("serve: resume: %w", err)
		}
		for _, sk := range skipped {
			c.Logf("resume: skipping unusable checkpoint %s: %v", sk.Path, sk.Err)
		}
		s.resumed = states
		c.Logf("resume: loaded %d checkpoint(s)", len(states))
	}
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until the listener closes (via Shutdown or
// Kill). It returns nil on clean shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.draining || s.killed
			s.mu.Unlock()
			if closing {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.draining || s.killed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// governed reports whether any memory budget is configured. A parent
// budget counts: its watermark lives upstream, but it only works if the
// sessions here account their footprint into it.
func (s *Server) governed() bool {
	return s.cfg.SessionMemBudget > 0 || s.cfg.GlobalMemBudget > 0 ||
		s.cfg.ParentBudget != nil || s.cfg.OverBudget != nil
}

// globalOver reports whether the summed accounted footprint has reached
// the global budget's high watermark (limit minus one eighth, matching
// govern.Budget's margin), or an upstream budget decision (the cluster's
// OverBudget hook) says this shard should shed.
func (s *Server) globalOver() bool {
	if g := s.cfg.GlobalMemBudget; g > 0 && s.govRoot.Used() >= g-g/8 {
		return true
	}
	return s.cfg.OverBudget != nil && s.cfg.OverBudget()
}

// GovernedUsed reports the footprint currently accounted against this
// server's budget root (the number a cluster compares across shards).
func (s *Server) GovernedUsed() int64 { return s.govRoot.Used() }

// admit decides whether a new connection may start a session right now.
// A non-empty reason means the connection gets a Retry.
func (s *Server) admit() (ok bool, reason string) {
	if s.queuedBytes.Load() > s.cfg.MaxQueuedBytes {
		return false, "queued bytes over limit"
	}
	if s.globalOver() {
		return false, "global memory budget over watermark"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	active := 0
	for _, st := range s.sessions {
		if st.active {
			active++
		}
	}
	if active >= s.cfg.MaxSessions {
		return false, "session limit reached"
	}
	if s.draining {
		return false, "draining"
	}
	return true, ""
}

// enforceGlobal sheds load while the summed accounted footprint is over
// the global watermark: the heaviest session — largest accounted
// footprint, ties broken by smallest session ID — steps its ladder down
// first, so which session degrades is a deterministic property of the
// accounted state, not of goroutine timing. The calling session and
// parked sessions step immediately (nothing else owns their ladders);
// sessions owned by other connections are flagged and step at their next
// frame boundary.
func (s *Server) enforceGlobal(self *sessionState) {
	if s.cfg.GlobalMemBudget <= 0 && s.cfg.OverBudget == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	skip := make(map[*sessionState]bool)
	for s.globalOver() {
		var heaviest *sessionState
		for _, st := range s.sessions {
			if skip[st] {
				continue
			}
			if heaviest == nil || heavier(st, heaviest) {
				heaviest = st
			}
		}
		if heaviest == nil {
			return // everything is flagged or at the floor
		}
		if heaviest == self || !heaviest.active {
			if !heaviest.pl.lad.ForceStep() {
				skip[heaviest] = true // at the floor; nothing left to free
			} else {
				s.cfg.Logf("session %s: stepped down to %s (global budget)", heaviest.id, heaviest.pl.lad.Rung())
			}
			continue
		}
		heaviest.stepReq.Store(true)
		skip[heaviest] = true // it frees memory at its next frame, not now
	}
}

// heavier reports whether a should shed before b.
func heavier(a, b *sessionState) bool {
	au, bu := a.pl.lad.Budget().Used(), b.pl.lad.Budget().Used()
	if au != bu {
		return au > bu
	}
	return a.id < b.id
}

// claim marks st owned by conn. Callers hold s.mu.
func (st *sessionState) claim(conn net.Conn) {
	st.active, st.parting = true, false
	st.conn = conn
	st.released = make(chan struct{})
}

// resolveSession finds or creates the session state for a Hello,
// claiming it for this connection. It returns nil if the session is
// already owned by a live connection, or is mid-migration to another
// shard; if the owner is parting (winding down after its final
// checkpoint) it waits for the release and adopts, so a reconnect can
// never lose the park/adopt race.
func (s *Server) resolveSession(h *Hello, conn net.Conn) (*sessionState, error) {
	for {
		s.mu.Lock()
		if s.migrating[h.SessionID] {
			// The state is being handed to another shard; anything started
			// here would fork the session's history. Retry — by the time
			// the client is back, the router points at the new owner.
			s.mu.Unlock()
			return nil, nil
		}
		st, ok := s.sessions[h.SessionID]
		if !ok {
			break // new or resumed session; s.mu still held
		}
		if !st.active {
			st.claim(conn)
			s.mu.Unlock()
			return st, nil
		}
		if !st.parting {
			s.mu.Unlock()
			return nil, nil // live duplicate connection: Retry
		}
		ch := st.released
		s.mu.Unlock()
		select {
		case <-ch:
			// The old handler released; loop and claim.
		case <-s.killCh:
			return nil, nil
		case <-time.After(s.cfg.IdleTimeout):
			return nil, nil // park wedged (disk stall?); client backs off
		}
	}
	defer s.mu.Unlock()
	if ck, ok := s.resumed[h.SessionID]; ok {
		delete(s.resumed, h.SessionID)
		pl, err := pipelineFromState(ck, s.cfg.MaxLMADs, s.govRoot.Sub(s.cfg.SessionMemBudget), s.governed())
		if err != nil {
			// The checkpoint decoded but its state does not reconstruct:
			// treat it as unusable and restart the session from zero.
			s.cfg.Logf("session %s: checkpoint unusable (%v), starting fresh", h.SessionID, err)
		} else {
			st := &sessionState{id: h.SessionID, pl: pl, acked: ck.FramesApplied}
			st.claim(conn)
			s.sessions[h.SessionID] = st
			return st, nil
		}
	}
	st := &sessionState{
		id: h.SessionID,
		pl: newPipeline(h.Workload, h.Sites, s.cfg.MaxLMADs,
			s.govRoot.Sub(s.cfg.SessionMemBudget), sessionSeed(h.SessionID), s.governed(), s.cfg.Approx),
	}
	st.claim(conn)
	s.sessions[h.SessionID] = st
	return st, nil
}

// parting marks the session as winding down. It must be called before the
// final park checkpoint is written: once the checkpoint file is visible, a
// reconnect may race the release, and the flag routes it to the wait in
// resolveSession instead of a Retry bounce.
func (s *Server) markParting(st *sessionState) {
	s.mu.Lock()
	st.parting = true
	s.mu.Unlock()
}

// release parks a session after its connection ends and wakes any
// reconnect waiting to adopt it.
func (s *Server) release(st *sessionState) {
	s.mu.Lock()
	st.active, st.parting = false, false
	st.conn = nil
	close(st.released)
	s.mu.Unlock()
}

// complete removes a finished session and its checkpoint file, returning
// its accounted footprint to the global budget.
func (s *Server) complete(st *sessionState) {
	s.mu.Lock()
	delete(s.sessions, st.id)
	s.mu.Unlock()
	st.pl.release()
	os.Remove(checkpoint.PathFor(s.cfg.CheckpointDir, st.id))
}

// Shutdown stops accepting, then drains live sessions: each keeps
// applying frames until its client finishes or ctx expires, at which
// point it is checkpointed and its partial profiles are flushed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining || s.killed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.drainCh)
	s.mu.Unlock()
	s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: sessions were told to wrap up when drainCh
		// closed; force the stragglers off the network.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	// Checkpoint and flush whatever state remains (parked sessions
	// included) so nothing collected is lost.
	s.mu.Lock()
	states := make([]*sessionState, 0, len(s.sessions))
	for _, st := range s.sessions {
		states = append(states, st)
	}
	s.mu.Unlock()
	for _, st := range states {
		if st.dirty {
			if ck, cerr := st.pl.state(st.id); cerr == nil {
				if serr := checkpoint.Save(checkpoint.PathFor(s.cfg.CheckpointDir, st.id), ck); serr == nil {
					st.acked = st.pl.framesApplied
					st.dirty = false
				}
			}
		}
		if werr := st.pl.writeProfiles(s.cfg.OutputDir); werr != nil {
			s.cfg.Logf("session %s: flush profiles: %v", st.id, werr)
		}
	}
	return err
}

// Kill simulates a crash (SIGKILL): the listener and every connection
// close immediately and all state that is not already durably
// checkpointed is discarded — no final checkpoint, no profile flush. It
// blocks until every session goroutine has exited, so tests can assert
// the absence of leaks before restarting.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	close(s.killCh)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	s.mu.Lock()
	s.sessions = make(map[string]*sessionState)
	s.resumed = make(map[string]*checkpoint.State)
	s.migrating = make(map[string]bool)
	s.mu.Unlock()
}

// readPreamble validates the 5-byte connection preamble.
func readPreamble(br *bufio.Reader) error {
	buf := make([]byte, len(ProtoMagic))
	if _, err := io.ReadFull(br, buf); err != nil {
		return protof("preamble: %v", err)
	}
	if string(buf) != ProtoMagic {
		return protof("bad preamble %x", buf)
	}
	return nil
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.dropConn(conn)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	if err := readPreamble(br); err != nil {
		return
	}
	mt, body, err := readMsg(br)
	if err != nil || mt != MsgHello {
		return
	}
	hello, err := decodeHello(body)
	if err != nil {
		writeMsg(bw, MsgErr, []byte(err.Error()))
		bw.Flush()
		return
	}
	retry := func() {
		writeMsg(bw, MsgRetry, binary.AppendUvarint(nil, uint64(s.cfg.RetryAfter.Milliseconds())))
		bw.Flush()
	}
	if ok, reason := s.admit(); !ok {
		s.cfg.Logf("session %s: admission rejected (%s)", hello.SessionID, reason)
		retry()
		return
	}
	st, err := s.resolveSession(hello, conn)
	if err != nil {
		writeMsg(bw, MsgErr, []byte(err.Error()))
		bw.Flush()
		return
	}
	if st == nil {
		s.cfg.Logf("session %s: already connected", hello.SessionID)
		retry()
		return
	}
	defer s.release(st)
	s.cfg.Logf("session %s: connected, resuming at frame %d", st.id, st.pl.framesApplied)
	if err := writeMsg(bw, MsgWelcome, binary.AppendUvarint(nil, st.pl.framesApplied)); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	s.runSession(conn, br, bw, st)
}
