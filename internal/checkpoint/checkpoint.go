// Package checkpoint persists profiler state to disk so a long-running
// ingestion session survives a crash.
//
// A checkpoint is one file holding the complete mid-stream state of a
// session's profiling pipelines — the exact Snapshot forms exported by
// sequitur, omc, leap, stride, and whomp — plus the session's durable
// cursor (how many trace frames have been fully applied). Restoring the
// snapshots and replaying from the cursor yields profiles byte-identical
// to an uninterrupted run; that property is what lets `ormpd -resume`
// acknowledge only checkpointed frames and still guarantee exactness
// (see docs/ARCHITECTURE.md, "Service layer").
//
// On-disk container (see docs/FORMATS.md):
//
//	magic   "ORMCKPT" (7 bytes)
//	version 1 byte (currently 1)
//	length  8 bytes little-endian: payload byte count
//	crc     4 bytes little-endian: CRC-32C (Castagnoli) of the payload
//	payload gob-encoded State
//
// Writes are crash-atomic: Save writes <path>.tmp, fsyncs it, renames it
// over <path>, and fsyncs the directory, so a reader never observes a
// half-written checkpoint — it sees either the old file or the new one.
// A torn or bit-flipped file fails the length or CRC check and Load
// returns a *CorruptError, which resume treats as "no usable checkpoint"
// rather than trusting damaged state.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ormprof/internal/atomicfile"
	"ormprof/internal/govern"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/whomp"
)

const (
	// Magic identifies a checkpoint file.
	Magic = "ORMCKPT"
	// Version is the current container version.
	Version = 1
	// MaxPayload bounds the payload length field so a corrupt header
	// cannot drive a huge allocation.
	MaxPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a structurally damaged checkpoint file. Resume
// logic treats it as "checkpoint unusable" (start fresh), distinct from
// I/O errors, which are operational failures.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint %s: corrupt: %s", e.Path, e.Reason)
}

// IsCorrupt reports whether err is a *CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// SiteEntry is one allocation-site name, kept sorted for determinism.
type SiteEntry struct {
	Site trace.SiteID
	Name string
}

// State is the complete resumable state of one ingestion session.
//
// The WHOMP and LEAP pipelines each keep their own OMC (mirroring the
// offline tools, which build one per profiler run), so both are stored.
// All component fields are the exact-snapshot types whose restore is
// proven byte-exact by their packages' resume tests.
type State struct {
	// SessionID names the session (the client supplies it and keeps it
	// across reconnects).
	SessionID string
	// Workload is the trace header's workload name.
	Workload string
	// Sites is the trace header's site-name table, sorted by site.
	Sites []SiteEntry
	// FramesApplied is the durable cursor: the number of leading trace
	// frames whose events are fully reflected in the snapshots below.
	FramesApplied uint64
	// EventsApplied counts the events those frames carried.
	EventsApplied uint64

	WhompOMC *omc.Snapshot
	Whomp    *whomp.SCCSnapshot
	LeapOMC  *omc.Snapshot
	Leap     *leap.SCCSnapshot
	Stride   *stride.Snapshot

	// Ladder is the resource-governance state: the degradation rung the
	// session was on, its step history, and the degraded modes' own state.
	// nil in checkpoints written before governance existed (gob leaves the
	// field unset), which restores as an ungoverned full-rung session. At
	// rungs below object-sampled the pipeline snapshots above are nil: the
	// session's entire output lives in the ladder.
	Ladder *govern.Snapshot
}

// SitesMap converts the sorted site table back to map form.
func (s *State) SitesMap() map[trace.SiteID]string {
	if len(s.Sites) == 0 {
		return nil
	}
	m := make(map[trace.SiteID]string, len(s.Sites))
	for _, e := range s.Sites {
		m[e.Site] = e.Name
	}
	return m
}

// SortSites converts a site-name map to the sorted slice form.
func SortSites(m map[trace.SiteID]string) []SiteEntry {
	out := make([]SiteEntry, 0, len(m))
	for id, name := range m {
		out = append(out, SiteEntry{Site: id, Name: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Encode serializes the state into the container format.
func Encode(st *State) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	if payload.Len() > MaxPayload {
		return nil, fmt.Errorf("checkpoint: payload %d bytes exceeds limit %d", payload.Len(), MaxPayload)
	}
	out := make([]byte, 0, len(Magic)+1+12+payload.Len())
	out = append(out, Magic...)
	out = append(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(payload.Len()))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload.Bytes(), crcTable))
	out = append(out, payload.Bytes()...)
	return out, nil
}

// Decode parses a container produced by Encode. path is used only for
// error messages.
func Decode(path string, data []byte) (*State, error) {
	bad := func(format string, args ...any) (*State, error) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf(format, args...)}
	}
	head := len(Magic) + 1 + 8 + 4
	if len(data) < head {
		return bad("file too short (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return bad("bad magic")
	}
	if v := data[len(Magic)]; v != Version {
		return bad("unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[len(Magic)+1:])
	if n > MaxPayload {
		return bad("unreasonable payload length %d", n)
	}
	sum := binary.LittleEndian.Uint32(data[len(Magic)+9:])
	payload := data[head:]
	if uint64(len(payload)) != n {
		return bad("payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return bad("payload CRC %#08x, header says %#08x", got, sum)
	}
	st := new(State)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return bad("payload does not decode: %v", err)
	}
	return st, nil
}

// Save atomically writes the state to path: the container is written to
// <path>.tmp, fsynced, renamed over path, and the directory fsynced.
func Save(path string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	return writeAtomic(path, data)
}

// writeAtomic commits data to path crash-atomically via
// internal/atomicfile — tmp + fsync + rename + directory fsync, the same
// discipline for every durable artifact this package owns (session
// checkpoints, final states, the router table). A failure is a typed
// *atomicfile.WriteError and leaves the previous durable copy intact.
func writeAtomic(path string, data []byte) error {
	if err := atomicfile.Write(path, data); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and verifies the checkpoint at path. A missing file returns
// an error satisfying errors.Is(err, os.ErrNotExist); a damaged file
// returns a *CorruptError.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxPayload+64))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return Decode(path, data)
}

// PathFor returns the checkpoint path for a session in dir.
func PathFor(dir, sessionID string) string {
	return filepath.Join(dir, sanitize(sessionID)+".ckpt")
}

// Skipped describes one unusable checkpoint file LoadDir left behind:
// the path and the typed error (usually a *CorruptError) explaining why.
type Skipped struct {
	Path string
	Err  error
}

// LoadDir loads every readable checkpoint in dir, keyed by session ID.
// Corrupt or unreadable files are skipped with a typed per-file error, so
// one damaged checkpoint never blocks resuming the others.
func LoadDir(dir string) (states map[string]*State, skipped []Skipped, err error) {
	return loadDirExt(dir, ".ckpt")
}

// FinalPathFor returns the final-state path for a completed session in
// dir. A final state is the same container as a live checkpoint, written
// once when the session completes and never deleted: it is what the
// cluster merge plane combines (see docs/FORMATS.md, "Final session
// states").
func FinalPathFor(dir, sessionID string) string {
	return filepath.Join(dir, sanitize(sessionID)+".final")
}

// LoadFinalDir loads every readable final session state in dir, keyed by
// session ID, with the same skip-don't-block contract as LoadDir.
func LoadFinalDir(dir string) (states map[string]*State, skipped []Skipped, err error) {
	return loadDirExt(dir, ".final")
}

func loadDirExt(dir, ext string) (states map[string]*State, skipped []Skipped, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	states = make(map[string]*State)
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ext {
			continue
		}
		p := filepath.Join(dir, e.Name())
		st, err := Load(p)
		if err != nil {
			skipped = append(skipped, Skipped{Path: p, Err: err})
			continue
		}
		states[st.SessionID] = st
	}
	return states, skipped, nil
}

// sanitize makes a session ID safe to use as a file name.
func sanitize(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "session"
	}
	return string(out)
}
