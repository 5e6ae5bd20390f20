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
// On disk a checkpoint is the gob-encoded State, sealed by internal/codec
// under magic "ORMCKPT" and version 1 (see docs/FORMATS.md, "Sealed
// container").
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
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ormprof/internal/atomicfile"
	"ormprof/internal/codec"
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
// A session translates each access once: one OMC feeds both WHOMP and
// LEAP. WhompOMC holds its snapshot, and LeapOMC is a copy of WhompOMC,
// kept for ORMCKPT v1 readers. All component fields are the exact-snapshot types whose restore is
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
	return sealGob(Magic, Version, MaxPayload, st)
}

// sealGob gob-encodes v and seals the payload under magic and version.
func sealGob(magic string, version byte, max int, v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("checkpoint: encode %s: %w", magic, err)
	}
	out, err := codec.Seal(magic, version, payload.Bytes(), max)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", magic, err)
	}
	return out, nil
}

// Decode parses a container produced by Encode. path is used only for
// error messages.
func Decode(path string, data []byte) (*State, error) {
	st := new(State)
	if err := openGob(path, data, Magic, Version, MaxPayload, st); err != nil {
		return nil, err
	}
	return st, nil
}

// openGob opens a sealed container and gob-decodes its payload into v.
// Every failure is a *CorruptError labelled with path.
func openGob(path string, data []byte, magic string, version byte, max int, v any) error {
	payload, err := codec.Open(data, magic, version, max)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
	}
	if err != nil {
		return &CorruptError{Path: path, Reason: err.Error()}
	}
	return nil
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
	data, err := readFile(path, MaxPayload)
	if err != nil {
		return nil, err
	}
	return Decode(path, data)
}

// readFile reads at most a sealed container's worth of bytes for a
// payload bound of max from path; anything longer fails the length check.
func readFile(path string, max int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, int64(max)+64))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return data, nil
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
