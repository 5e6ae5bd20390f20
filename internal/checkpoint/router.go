package checkpoint

// The router's durable cursor state. Where a shard's checkpoint remembers
// how much of a session's stream is applied, the router's table remembers
// WHERE each rerouted session's stream lives: a session whose primary
// shard died (or whose ring moved under it) is parked on another shard,
// and a router restart must send its reconnects back to that shard —
// otherwise the recovered primary would welcome the client at a stale
// cursor and the stream would be re-sent from scratch (still exact, but a
// full replay instead of a resume).
//
// Version 2 makes the table the cluster's topology document, not just its
// exception list: it carries the ring epoch and the shard list alongside
// the routes, so a standby router that replicates the table serves the
// same ring at the same epoch as the primary that wrote it — and a
// replica holding an older epoch can be detected and refused instead of
// silently resurrecting a retired topology.
//
// On disk the table is a gob-encoded RouterState — ring epoch (at least
// 1), shard list in ring order, routes sorted by session ID — sealed by
// internal/codec under magic "ORMRTAB" and version 2; the routes-only
// version 1 is rejected (see docs/FORMATS.md, "Sealed container").
//
// Writes share Save's crash-atomic discipline, and a torn, bit-flipped or
// unsupported table loads as a *CorruptError — the router treats that as
// an empty table (every session back to its ring primary), which is
// always safe.

import (
	"fmt"
	"sort"
)

const (
	// RouterMagic identifies a router routing-table file.
	RouterMagic = "ORMRTAB"
	// RouterVersion is the table container version, the only one read.
	RouterVersion = 2
	// MaxRouterPayload bounds the table payload so a corrupt header
	// cannot drive a huge allocation.
	MaxRouterPayload = 1 << 26
)

// Route is one session's pinned shard assignment.
type Route struct {
	Session string
	Shard   string
}

// RouterState is the router's full durable state: the ring topology
// (epoch + shard list) plus every pinned session→shard route. It is both
// the on-disk payload and the unit of router-to-router replication.
type RouterState struct {
	// Epoch is the ring version: 1 for a fresh ring, incremented by every
	// add-shard/remove-shard.
	Epoch uint64
	// Shards is the ring's shard address list, in ring-build order.
	Shards []string
	// Routes maps session → shard for sessions pinned off their current
	// ring primary.
	Routes map[string]string
}

// gobRouterState is the serialized form: routes as a sorted slice so the
// payload bytes are a canonical function of the state — byte-comparing
// two table files compares the tables.
type gobRouterState struct {
	Epoch  uint64
	Shards []string
	Routes []Route
}

// EncodeRouterTable serializes the state into the ORMRTAB container
// (the exact bytes SaveRouterTable writes). The encoding is canonical:
// routes are sorted by session ID, so equal states encode equal bytes and
// a replicated table is byte-identical to its source.
func EncodeRouterTable(st *RouterState) ([]byte, error) {
	g := gobRouterState{Epoch: st.Epoch, Shards: append([]string(nil), st.Shards...)}
	g.Routes = make([]Route, 0, len(st.Routes))
	for s, sh := range st.Routes {
		g.Routes = append(g.Routes, Route{Session: s, Shard: sh})
	}
	sort.Slice(g.Routes, func(i, j int) bool { return g.Routes[i].Session < g.Routes[j].Session })
	return sealGob(RouterMagic, RouterVersion, MaxRouterPayload, &g)
}

// DecodeRouterTable parses an ORMRTAB container from data. A damaged or
// unsupported container — including the routes-only version 1 and the
// topology-less epoch 0 it loaded as — returns a *CorruptError with path
// as its location label (the caller names the source: a file path, or a
// replication peer). A decoded state always has Epoch >= 1 and a
// non-empty shard list.
func DecodeRouterTable(path string, data []byte) (*RouterState, error) {
	bad := func(format string, args ...any) (*RouterState, error) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf(format, args...)}
	}
	var g gobRouterState
	if err := openGob(path, data, RouterMagic, RouterVersion, MaxRouterPayload, &g); err != nil {
		return nil, err
	}
	if g.Epoch == 0 {
		return bad("epoch 0 (a table without topology)")
	}
	if len(g.Shards) == 0 {
		return bad("epoch %d with empty shard list", g.Epoch)
	}
	seen := make(map[string]bool, len(g.Shards))
	for _, sh := range g.Shards {
		if sh == "" {
			return bad("empty shard address in topology")
		}
		if seen[sh] {
			return bad("duplicate shard address %q in topology", sh)
		}
		seen[sh] = true
	}
	st := &RouterState{Epoch: g.Epoch, Shards: g.Shards}
	st.Routes = make(map[string]string, len(g.Routes))
	for _, r := range g.Routes {
		if r.Session == "" || r.Shard == "" {
			return bad("route with empty session or shard")
		}
		if _, dup := st.Routes[r.Session]; dup {
			return bad("duplicate route for session %q", r.Session)
		}
		st.Routes[r.Session] = r.Shard
	}
	return st, nil
}

// SaveRouterTable atomically writes the router state to path.
func SaveRouterTable(path string, st *RouterState) error {
	out, err := EncodeRouterTable(st)
	if err != nil {
		return err
	}
	return writeAtomic(path, out)
}

// LoadRouterTable reads and verifies the routing table at path. A missing
// file returns an error satisfying errors.Is(err, os.ErrNotExist); a
// damaged file returns a *CorruptError.
func LoadRouterTable(path string) (*RouterState, error) {
	data, err := readFile(path, MaxRouterPayload)
	if err != nil {
		return nil, err
	}
	return DecodeRouterTable(path, data)
}
