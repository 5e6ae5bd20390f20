package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"ormprof/internal/checkpoint"
)

// RouterConfig configures a Router. Zero values select the documented
// defaults.
type RouterConfig struct {
	// Shards is the backend shard address list (required, unique,
	// non-empty). It seeds the epoch-1 ring; a durable or replicated
	// ORMRTAB table carrying a higher epoch overrides it, because the
	// table records topology changes made while this config sat still.
	Shards []string

	// StatePath, when set, persists the router's full state (ORMRTAB v2:
	// ring epoch, shard list, session→shard reroutes — see
	// internal/checkpoint) so a restarted router resumes the exact
	// topology and placements it last served.
	StatePath string

	// Standby starts the router in standby mode: it refuses every ingest
	// Hello with a Retry carrying ActiveAddr as a redirect hint, while
	// its admin plane stays live to receive replicated tables. Promote()
	// flips it active.
	Standby bool
	// ActiveAddr is the active router's ingest address, handed to clients
	// a standby refuses. Empty means "no hint" (plain Retry).
	ActiveAddr string
	// Peers lists the admin addresses of peer routers. The router pulls
	// the freshest table from them at startup and pushes its own after
	// every durable state change, so a standby holds the active's
	// placements by the time a failover promotes it.
	Peers []string

	// OnAddShard and OnRemoveShard, when set, take over the admin plane's
	// add-shard/remove-shard commands. The local cluster wires these to
	// its migration orchestrator so a topology change also moves the
	// affected sessions; a bare router (external shards) installs the new
	// ring directly.
	OnAddShard    func(epoch uint64, addr string) (uint64, error)
	OnRemoveShard func(epoch uint64, addr string) (uint64, error)

	// RetryAfter is the backoff hint the router sends when it must refuse
	// a connection itself (no live shard reachable, session held for
	// migration, standby mode) and the target shard has never supplied
	// its own hint. Default DefaultRetryAfter. When the shard HAS told
	// the router its retry-after — in a Retry the router relayed earlier —
	// that hint is propagated instead of this one.
	RetryAfter time.Duration
	// DialTimeout bounds each backend dial. Default 2s.
	DialTimeout time.Duration
	// HelloTimeout bounds reading the client's preamble+Hello and the
	// shard's first reply. Default 10s.
	HelloTimeout time.Duration

	// ProbeBackoffBase, ProbeBackoffMax, and ProbeJitterSeed shape the
	// down-shard probe schedule (ormpush's backoff machinery, reused).
	// Defaults 100ms, 2s, seed 1.
	ProbeBackoffBase time.Duration
	ProbeBackoffMax  time.Duration
	ProbeJitterSeed  int64

	// Logf, when set, receives one line per routing event.
	Logf func(format string, args ...any)
}

func (c *RouterConfig) withDefaults() RouterConfig {
	out := *c
	if out.RetryAfter <= 0 {
		out.RetryAfter = DefaultRetryAfter
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 2 * time.Second
	}
	if out.HelloTimeout <= 0 {
		out.HelloTimeout = 10 * time.Second
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Router is the cluster's ingest tier: it terminates nothing. Each client
// connection's preamble and Hello are parsed once — only to learn the
// session ID — then forwarded byte-for-byte to the shard the consistent-
// hash ring (or the reroute table) names, and from there the connection
// is a verbatim bidirectional splice: the shard speaks ORMP/1 to the
// client exactly as if it were listening itself. All session state,
// checkpointing, and acknowledgement semantics stay in the shard, so
// Ack == durable holds end-to-end through the router unchanged.
//
// Failover: a typed failure reaching a shard (dial error, death before
// its first reply) marks it Down; sessions whose shard is Down are routed
// to the next live shard in their ring order and the reroute is recorded
// (and persisted when StatePath is set). Down shards are probed back to
// Up on a capped exponential backoff with seeded jitter. A shard that is
// merely slow, or answering Retry, is never marked Down.
//
// Reconfiguration: the ring is versioned (see ring.epoch) and mutable
// through the admin plane (admin.go). Installing a new ring pins every
// known live placement that survives the change, so existing sessions
// stay where their durable cursor lives while new sessions follow the
// new ring; sessions the orchestrator migrates are Held (refused with
// Retry) for the handoff window and Repointed to their new owner before
// release. The full state replicates to standby routers after every
// durable change, and a standby Promote()d after the active dies serves
// the same placements at the same epoch.
type Router struct {
	cfg    RouterConfig
	ln     net.Listener
	health *health

	mu         sync.Mutex
	ring       *ring
	routes     map[string]string // session → shard, only when off-primary
	placements map[string]string // session → shard, every committed landing
	held       map[string]bool   // sessions refused during migration
	standby    bool
	adminLn    net.Listener
	conns      map[net.Conn]struct{}
	draining   bool
	killed     bool
	killCh     chan struct{}

	// repMu serializes state snapshots and their pushes to peers, so a
	// peer can never observe replication going backwards in time.
	repMu sync.Mutex

	wg sync.WaitGroup
}

// NewRouter creates a Router listening on ln, routing to cfg.Shards. With
// cfg.StatePath set, a readable state table is loaded; a table carrying a
// ring epoch overrides cfg.Shards (the table is newer by construction),
// while a corrupt table is discarded (primary routing is always safe)
// with a log line. With cfg.Peers set, the freshest peer table newer than
// the local state is adopted before serving.
func NewRouter(ln net.Listener, cfg RouterConfig) (*Router, error) {
	c := cfg.withDefaults()
	rg, err := newRing(c.Shards)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:        c,
		ln:         ln,
		ring:       rg,
		routes:     make(map[string]string),
		placements: make(map[string]string),
		held:       make(map[string]bool),
		standby:    c.Standby,
		conns:      make(map[net.Conn]struct{}),
		killCh:     make(chan struct{}),
	}
	if c.StatePath != "" {
		st, err := checkpoint.LoadRouterTable(c.StatePath)
		switch {
		case err == nil:
			ng, rerr := newRingAt(st.Epoch, st.Shards)
			if rerr != nil {
				return nil, fmt.Errorf("serve: router state: %w", rerr)
			}
			if ng.epoch >= rg.epoch {
				if !sameShards(ng.addrs, rg.addrs) {
					c.Logf("router: durable table epoch %d overrides configured shard list", ng.epoch)
				}
				r.ring = ng
			}
			valid := make(map[string]bool, len(r.ring.addrs))
			for _, a := range r.ring.addrs {
				valid[a] = true
			}
			for s, sh := range st.Routes {
				if valid[sh] {
					r.routes[s] = sh
					r.placements[s] = sh
				}
			}
			c.Logf("router: restored epoch %d with %d reroute(s)", r.ring.epoch, len(r.routes))
		case errors.Is(err, os.ErrNotExist):
		case checkpoint.IsCorrupt(err):
			c.Logf("router: discarding corrupt state table: %v", err)
		default:
			return nil, fmt.Errorf("serve: router state: %w", err)
		}
	}
	r.health = newHealth(r.ring.addrs, healthConfig{
		probeBase:   c.ProbeBackoffBase,
		probeMax:    c.ProbeBackoffMax,
		probeJitter: c.ProbeJitterSeed,
		dialTimeout: c.DialTimeout,
		logf:        c.Logf,
	})
	// Peers may hold a newer topology than both config and local disk —
	// the normal case for a standby (re)started behind a long-lived
	// active. Adopt the freshest one; unreachable peers are not fatal.
	for _, peer := range c.Peers {
		st, perr := AdminPullTable(peer, r.Epoch(), c.DialTimeout)
		if perr != nil {
			c.Logf("router: startup pull from %s: %v", peer, perr)
			continue
		}
		if st.Epoch >= r.Epoch() {
			if aerr := r.ApplyTable(st); aerr != nil {
				c.Logf("router: apply table from %s: %v", peer, aerr)
			} else {
				c.Logf("router: adopted epoch %d from peer %s", st.Epoch, peer)
			}
		}
	}
	r.health.start()
	return r, nil
}

func sameShards(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Addr returns the listener address.
func (r *Router) Addr() net.Addr { return r.ln.Addr() }

// Epoch returns the current ring epoch.
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.epoch
}

// Shards returns the current ring's shard addresses.
func (r *Router) Shards() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ring.addrs...)
}

// Standby reports whether the router is refusing ingest as a standby.
func (r *Router) Standby() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.standby
}

// Promote flips a standby router active: it starts accepting ingest with
// whatever topology and placements replication has delivered.
func (r *Router) Promote() {
	r.mu.Lock()
	was := r.standby
	r.standby = false
	epoch := r.ring.epoch
	r.mu.Unlock()
	if was {
		r.cfg.Logf("router: promoted to active at epoch %d", epoch)
	}
}

// State snapshots the router's full durable state.
func (r *Router) State() *checkpoint.RouterState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stateLocked()
}

func (r *Router) stateLocked() *checkpoint.RouterState {
	st := &checkpoint.RouterState{
		Epoch:  r.ring.epoch,
		Shards: append([]string(nil), r.ring.addrs...),
		Routes: make(map[string]string, len(r.routes)),
	}
	for s, sh := range r.routes {
		st.Routes[s] = sh
	}
	return st
}

// persistLocked writes the current state to StatePath. Callers hold r.mu;
// persistence failures are logged, not fatal — the in-memory state is
// still authoritative, only crash recovery degrades.
func (r *Router) persistLocked() {
	if r.cfg.StatePath == "" {
		return
	}
	if err := checkpoint.SaveRouterTable(r.cfg.StatePath, r.stateLocked()); err != nil {
		r.cfg.Logf("router: persist state table: %v", err)
	}
}

// replicate pushes the current state to every peer, in snapshot order
// (repMu serializes concurrent replications). Push failures are logged:
// a dead standby re-syncs by pulling at restart.
func (r *Router) replicate() {
	if len(r.cfg.Peers) == 0 {
		return
	}
	r.repMu.Lock()
	defer r.repMu.Unlock()
	st := r.State()
	for _, peer := range r.cfg.Peers {
		if err := AdminPushTable(peer, st, r.cfg.DialTimeout); err != nil {
			r.cfg.Logf("router: replicate to %s: %v", peer, err)
		}
	}
}

// SyncPeers replicates synchronously — the deterministic flush an
// orchestrator runs before declaring a reconfiguration complete, so a
// live standby is promotable the moment the change lands. An
// unreachable peer is logged and skipped, not failed: a dead standby
// must never veto a resize, and it re-syncs by pulling at restart. The
// one reported failure is a peer that answered and refused the table as
// stale — that means a second router holds a newer ring than this one,
// and the orchestrator is about to split the brain.
func (r *Router) SyncPeers() error {
	if len(r.cfg.Peers) == 0 {
		return nil
	}
	r.repMu.Lock()
	defer r.repMu.Unlock()
	st := r.State()
	var first error
	for _, peer := range r.cfg.Peers {
		err := AdminPushTable(peer, st, r.cfg.DialTimeout)
		if err == nil {
			continue
		}
		var stale *StaleEpochError
		if errors.As(err, &stale) {
			if first == nil {
				first = fmt.Errorf("serve: sync %s: %w", peer, err)
			}
			continue
		}
		r.cfg.Logf("router: sync %s: peer unreachable: %v", peer, err)
	}
	return first
}

// AddShard handles an admin add-shard command presented against epoch.
// With an orchestrator hook installed (local cluster) the hook owns the
// whole change, migration included; otherwise the ring is installed
// directly and existing placements are pinned where they live.
func (r *Router) AddShard(epoch uint64, addr string) (uint64, error) {
	if r.Standby() {
		return 0, fmt.Errorf("serve: standby router does not accept topology commands")
	}
	if r.cfg.OnAddShard != nil {
		return r.cfg.OnAddShard(epoch, addr)
	}
	return r.InstallAdd(epoch, addr)
}

// RemoveShard is AddShard's inverse.
func (r *Router) RemoveShard(epoch uint64, addr string) (uint64, error) {
	if r.Standby() {
		return 0, fmt.Errorf("serve: standby router does not accept topology commands")
	}
	if r.cfg.OnRemoveShard != nil {
		return r.cfg.OnRemoveShard(epoch, addr)
	}
	return r.InstallRemove(epoch, addr)
}

// InstallAdd compare-and-swaps the ring: it must still be at epoch, or
// the command is refused with a *StaleEpochError — a duplicate of an
// applied command always lands here, which is what makes admin retries
// safe. On success the new ring (epoch+1) is installed, persisted, and
// replicated, and the new epoch returned.
func (r *Router) InstallAdd(epoch uint64, addr string) (uint64, error) {
	r.mu.Lock()
	if epoch != r.ring.epoch {
		se := &StaleEpochError{Have: r.ring.epoch, Got: epoch}
		r.mu.Unlock()
		return se.Have, se
	}
	ng, err := r.ring.add(addr)
	if err != nil {
		r.mu.Unlock()
		return epoch, err
	}
	r.installLocked(ng)
	r.mu.Unlock()
	r.cfg.Logf("router: epoch %d: added shard %s", ng.epoch, addr)
	r.replicate()
	return ng.epoch, nil
}

// InstallRemove is InstallAdd for shard removal.
func (r *Router) InstallRemove(epoch uint64, addr string) (uint64, error) {
	r.mu.Lock()
	if epoch != r.ring.epoch {
		se := &StaleEpochError{Have: r.ring.epoch, Got: epoch}
		r.mu.Unlock()
		return se.Have, se
	}
	ng, err := r.ring.remove(addr)
	if err != nil {
		r.mu.Unlock()
		return epoch, err
	}
	r.installLocked(ng)
	r.mu.Unlock()
	r.cfg.Logf("router: epoch %d: removed shard %s", ng.epoch, addr)
	r.replicate()
	return ng.epoch, nil
}

// installLocked swaps in a new ring. Health tracking follows the shard
// set, and every known placement is reconciled against the new topology:
// a session whose shard survived stays exactly where its durable cursor
// lives (pinned off-primary if the ring now disagrees), while placements
// on a departed shard are dropped — those sessions are the orchestrator's
// to migrate and Repoint. Callers hold r.mu.
func (r *Router) installLocked(ng *ring) {
	old := r.ring
	r.ring = ng
	have := make(map[string]bool, len(ng.addrs))
	for _, a := range ng.addrs {
		have[a] = true
	}
	for _, a := range ng.addrs {
		if !old.contains(a) {
			r.health.addShard(a)
		}
	}
	for _, a := range old.addrs {
		if !have[a] {
			r.health.removeShard(a)
		}
	}
	for s, a := range r.placements {
		switch {
		case !have[a]:
			delete(r.placements, s)
			delete(r.routes, s)
		case ng.primary(s) == a:
			delete(r.routes, s)
		default:
			r.routes[s] = a
		}
	}
	for s, a := range r.routes {
		if !have[a] || ng.primary(s) == a {
			delete(r.routes, s)
		}
	}
	r.persistLocked()
}

// ApplyTable installs a replicated full state: ring, routes, placements.
// A table older than the local epoch is refused with *StaleEpochError —
// the stale-replica guard. Equal epochs apply (routes evolve within an
// epoch). A decoded table never has epoch 0, but a state built in memory
// can, and one carries no topology to apply.
func (r *Router) ApplyTable(st *checkpoint.RouterState) error {
	if st.Epoch == 0 {
		return fmt.Errorf("serve: cannot apply an epoch-0 table")
	}
	ng, err := newRingAt(st.Epoch, st.Shards)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if st.Epoch < r.ring.epoch {
		se := &StaleEpochError{Have: r.ring.epoch, Got: st.Epoch}
		r.mu.Unlock()
		return se
	}
	old := r.ring
	r.ring = ng
	for _, a := range ng.addrs {
		if !old.contains(a) {
			r.health.addShard(a)
		}
	}
	for _, a := range old.addrs {
		if !ng.contains(a) {
			r.health.removeShard(a)
		}
	}
	r.routes = make(map[string]string, len(st.Routes))
	r.placements = make(map[string]string, len(st.Routes))
	for s, sh := range st.Routes {
		r.routes[s] = sh
		r.placements[s] = sh
	}
	r.persistLocked()
	r.mu.Unlock()
	return nil
}

// Hold refuses the session's new connections with Retry until Release.
// The orchestrator holds a session before its handoff starts so a client
// reconnect cannot race the migration into creating fresh state on a
// shard that is about to stop owning it.
func (r *Router) Hold(session string) {
	r.mu.Lock()
	r.held[session] = true
	r.mu.Unlock()
}

// Release lifts a Hold.
func (r *Router) Release(session string) {
	r.mu.Lock()
	delete(r.held, session)
	r.mu.Unlock()
}

// Repoint pins a migrated session to its new owner, durably and on every
// replica, so the next reconnect lands on the shard that now holds its
// cursor. Call between the destination's Adopt and the Release.
func (r *Router) Repoint(session, addr string) {
	r.mu.Lock()
	r.placements[session] = addr
	if r.ring.primary(session) == addr {
		delete(r.routes, session)
	} else {
		r.routes[session] = addr
	}
	r.persistLocked()
	r.mu.Unlock()
	r.replicate()
}

// Serve accepts and routes connections until the listener closes.
func (r *Router) Serve() error {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			r.mu.Lock()
			closing := r.draining || r.killed
			r.mu.Unlock()
			if closing {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		r.mu.Lock()
		if r.draining || r.killed {
			r.mu.Unlock()
			conn.Close()
			continue
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.route(conn)
		}()
	}
}

// Shutdown stops accepting and waits for in-flight connections to finish
// their splices, force-closing them when ctx expires.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.draining || r.killed {
		r.mu.Unlock()
		return nil
	}
	r.draining = true
	adminLn := r.adminLn
	r.mu.Unlock()
	r.ln.Close()
	if adminLn != nil {
		adminLn.Close()
	}
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		r.closeConns()
		<-done
		err = ctx.Err()
	}
	r.health.stop()
	return err
}

// Kill simulates a router crash: listeners and all spliced connections
// close immediately. The state table survives only as far as StatePath
// made it durable — which is the point of StatePath.
func (r *Router) Kill() {
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		return
	}
	r.killed = true
	close(r.killCh)
	adminLn := r.adminLn
	r.mu.Unlock()
	r.ln.Close()
	if adminLn != nil {
		adminLn.Close()
	}
	r.closeConns()
	r.wg.Wait()
	r.health.stop()
}

func (r *Router) closeConns() {
	r.mu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
}

func (r *Router) dropConn(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
	conn.Close()
}

// candidates returns the shard addresses to try for a session, in order:
// its pinned reroute first (if still live), then its ring order with Down
// shards filtered out.
func (r *Router) candidates(session string) []string {
	var out []string
	seen := make(map[string]bool)
	r.mu.Lock()
	pinned, hasPin := r.routes[session]
	order := r.ring.order(session)
	addrs := r.ring.addrs
	r.mu.Unlock()
	if hasPin && r.health.up(pinned) {
		out = append(out, pinned)
		seen[pinned] = true
	}
	for _, i := range order {
		a := addrs[i]
		if !seen[a] && r.health.up(a) {
			out = append(out, a)
			seen[a] = true
		}
	}
	return out
}

// commit records where a session actually landed. Off-primary placements
// are pinned (and persisted); a session back on its primary drops its pin.
// Every landing updates the placements map — the knowledge a future ring
// change uses to keep live sessions with their cursors.
func (r *Router) commit(session, addr string) {
	r.mu.Lock()
	r.placements[session] = addr
	primary := r.ring.primary(session)
	prev, had := r.routes[session]
	changed := false
	switch {
	case addr == primary && had:
		delete(r.routes, session)
		changed = true
	case addr != primary && (!had || prev != addr):
		r.routes[session] = addr
		changed = true
	}
	if changed {
		r.persistLocked()
	}
	r.mu.Unlock()
	if changed {
		r.replicate()
	}
}

// refuse answers the client with Retry, propagating the named shard's own
// most recent retry-after hint when one is known and falling back to the
// router's configured hint only when the shard has never supplied one.
// A non-empty redirect carries the address the client should try instead
// (the standby → active redirect).
func (r *Router) refuse(conn net.Conn, bw *bufio.Writer, shard, redirect string) {
	hint := time.Duration(0)
	if shard != "" {
		hint = r.health.retryHint(shard)
	}
	if hint <= 0 {
		hint = r.cfg.RetryAfter
	}
	conn.SetWriteDeadline(time.Now().Add(r.cfg.HelloTimeout))
	writeMsg(bw, MsgRetry, encodeRetry(uint64(hint.Milliseconds()), redirect))
	bw.Flush()
}

// route handles one client connection end to end.
func (r *Router) route(client net.Conn) {
	defer r.dropConn(client)
	br := bufio.NewReader(client)
	bw := bufio.NewWriter(client)

	// The routing path: the only bytes the router interprets.
	client.SetReadDeadline(time.Now().Add(r.cfg.HelloTimeout))
	if err := readPreamble(br); err != nil {
		return
	}
	mt, rawHello, body, err := readRawMsg(br)
	if err != nil || mt != MsgHello {
		return
	}
	hello, err := decodeHello(body)
	if err != nil {
		client.SetWriteDeadline(time.Now().Add(r.cfg.HelloTimeout))
		writeMsg(bw, MsgErr, []byte(err.Error()))
		bw.Flush()
		return
	}

	r.mu.Lock()
	standby, held := r.standby, r.held[hello.SessionID]
	activeHint := r.cfg.ActiveAddr
	r.mu.Unlock()
	if standby {
		r.cfg.Logf("session %s: refused by standby (active %s)", hello.SessionID, activeHint)
		r.refuse(client, bw, "", activeHint)
		return
	}
	if held {
		r.cfg.Logf("session %s: held for migration", hello.SessionID)
		r.refuse(client, bw, "", "")
		return
	}

	cands := r.candidates(hello.SessionID)
	if len(cands) == 0 {
		r.cfg.Logf("session %s: no live shard", hello.SessionID)
		r.refuse(client, bw, r.primaryOf(hello.SessionID), "")
		return
	}
	for _, addr := range cands {
		if r.routeTo(client, br, bw, hello.SessionID, rawHello, addr) {
			return
		}
		// Typed failure reaching addr: it is marked down; fall through to
		// the next candidate with the same Hello.
	}
	r.cfg.Logf("session %s: every candidate shard failed", hello.SessionID)
	r.refuse(client, bw, cands[0], "")
}

func (r *Router) primaryOf(session string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.primary(session)
}

// routeTo attempts to hand the connection to one shard. It returns true
// when the client's connection is settled (spliced to completion, or
// answered with the shard's own Retry/Err); false when the shard failed
// before its first reply, in which case it has been marked down and the
// caller may try the next candidate.
func (r *Router) routeTo(client net.Conn, cbr *bufio.Reader, cbw *bufio.Writer, session string, rawHello []byte, addr string) bool {
	shard, err := net.DialTimeout("tcp", addr, r.cfg.DialTimeout)
	if err != nil {
		r.health.markFailure(addr, err)
		return false
	}
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		shard.Close()
		return true
	}
	r.conns[shard] = struct{}{}
	r.mu.Unlock()
	defer r.dropConn(shard)

	sbw := bufio.NewWriter(shard)
	sbr := bufio.NewReader(shard)
	shard.SetWriteDeadline(time.Now().Add(r.cfg.HelloTimeout))
	if _, err := sbw.WriteString(ProtoMagic); err != nil {
		r.health.markFailure(addr, err)
		return false
	}
	if _, err := sbw.Write(rawHello); err != nil {
		r.health.markFailure(addr, err)
		return false
	}
	if err := sbw.Flush(); err != nil {
		r.health.markFailure(addr, err)
		return false
	}

	// The shard's verdict: relay it verbatim, but remember a Retry's
	// hint — it is the shard's own admission control speaking, and the
	// router reuses it when it must refuse on the shard's behalf later.
	shard.SetReadDeadline(time.Now().Add(r.cfg.HelloTimeout))
	mt, raw, body, err := readRawMsg(sbr)
	if err != nil {
		r.health.markFailure(addr, err)
		return false
	}
	if mt == MsgRetry {
		if ms, _, perr := decodeRetry(body); perr == nil {
			r.health.noteRetryHint(addr, time.Duration(ms)*time.Millisecond)
		}
	}
	client.SetWriteDeadline(time.Now().Add(r.cfg.HelloTimeout))
	if _, err := cbw.Write(raw); err != nil {
		return true // client side failed; nothing to hold against the shard
	}
	if err := cbw.Flush(); err != nil {
		return true
	}
	if mt != MsgWelcome {
		// Retry or Err: the shard settled the connection itself.
		return true
	}
	r.commit(session, addr)
	r.cfg.Logf("session %s: routed to %s", session, addr)
	r.splice(client, cbr, cbw, shard, sbr, sbw)
	return true
}

// splice relays bytes verbatim in both directions until either side
// closes. Deadlines are cleared: liveness is the endpoints' business (the
// shard enforces its IdleTimeout, the client its attempt timeouts), and a
// router-imposed cadence would add a third clock that can only misfire.
func (r *Router) splice(client net.Conn, cbr *bufio.Reader, cbw *bufio.Writer, shard net.Conn, sbr *bufio.Reader, sbw *bufio.Writer) {
	client.SetDeadline(time.Time{})
	shard.SetDeadline(time.Time{})
	var wg sync.WaitGroup
	wg.Add(2)
	relay := func(dst *bufio.Writer, dstConn net.Conn, src *bufio.Reader) {
		defer wg.Done()
		buf := make([]byte, 32<<10)
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
				if werr := dst.Flush(); werr != nil {
					break
				}
			}
			if rerr != nil {
				break
			}
		}
		// Half-close toward the destination so its reader sees EOF once
		// the in-flight bytes land; full close if the conn cannot.
		if tc, ok := dstConn.(*net.TCPConn); ok {
			tc.CloseWrite()
		} else {
			dstConn.Close()
		}
	}
	go relay(sbw, shard, cbr)
	go relay(cbw, client, sbr)
	wg.Wait()
}
