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
// On-disk container (see docs/FORMATS.md):
//
//	magic   "ORMRTAB" (7 bytes)
//	version 1 byte (2; the routes-only version 1 is rejected)
//	length  8 bytes little-endian: payload byte count
//	crc     4 bytes little-endian: CRC-32C (Castagnoli) of the payload
//	payload gob-encoded RouterState: ring epoch (at least 1), shard list
//	        in ring order, routes sorted by session ID
//
// Writes share Save's crash-atomic discipline, and a torn, bit-flipped or
// unsupported table loads as a *CorruptError — the router treats that as
// an empty table (every session back to its ring primary), which is
// always safe.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&g); err != nil {
		return nil, fmt.Errorf("checkpoint: encode router table: %w", err)
	}
	if payload.Len() > MaxRouterPayload {
		return nil, fmt.Errorf("checkpoint: router table %d bytes exceeds limit %d", payload.Len(), MaxRouterPayload)
	}
	out := make([]byte, 0, len(RouterMagic)+1+12+payload.Len())
	out = append(out, RouterMagic...)
	out = append(out, RouterVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(payload.Len()))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload.Bytes(), crcTable))
	return append(out, payload.Bytes()...), nil
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
	head := len(RouterMagic) + 1 + 8 + 4
	if len(data) < head {
		return bad("file too short (%d bytes)", len(data))
	}
	if string(data[:len(RouterMagic)]) != RouterMagic {
		return bad("bad magic")
	}
	version := data[len(RouterMagic)]
	if version != RouterVersion {
		return bad("unsupported version %d", version)
	}
	n := binary.LittleEndian.Uint64(data[len(RouterMagic)+1:])
	if n > MaxRouterPayload {
		return bad("unreasonable payload length %d", n)
	}
	sum := binary.LittleEndian.Uint32(data[len(RouterMagic)+9:])
	payload := data[head:]
	if uint64(len(payload)) != n {
		return bad("payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return bad("payload CRC %#08x, header says %#08x", got, sum)
	}
	var g gobRouterState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&g); err != nil {
		return bad("payload does not decode: %v", err)
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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxRouterPayload+64))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return DecodeRouterTable(path, data)
}
