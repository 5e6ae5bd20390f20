// Package tracefmt implements the on-disk probe-trace encoding — the
// persisted form of the (instruction-id, address) + object-event contract
// between the instrumentation front end and the profiling framework.
//
// A trace is captured once, while the workload runs, and replayed any
// number of times through any profiler ("collect once, profile many").
// The encoding is designed for that workflow:
//
//   - self-describing: the header carries the format version, the workload
//     name, and the static allocation-site name table, so a replayed trace
//     reconstructs exactly the profile a live run would have built —
//     byte-identical, including symbolic group names;
//   - streaming: the Writer is a trace.Sink fed straight from the machine's
//     probes, the Reader is a trace.Source pulled by the profilers; neither
//     side ever holds more than one frame of events in memory, so replay is
//     O(batch), not O(trace);
//   - compact: fields are LEB128 varints, times and addresses are
//     delta-encoded within each frame, so strided access traces cost a few
//     bytes per event;
//   - damage-tolerant: every frame starts with a sync marker and carries
//     a CRC32C of its payload, so a reader in lenient mode (WithLenient)
//     can detect a corrupt, truncated, or overwritten frame, scan forward
//     to the next valid frame boundary, and keep delivering events — losing
//     only the damaged frame. Skips are accounted in Stats and reported as
//     a typed *CorruptionError once the salvageable events are exhausted.
//
// See docs/FORMATS.md for the byte-level layout and the versioning policy.
package tracefmt

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a probe-trace file.
const Magic = "ORMTRACE"

// Version is the format version, the only one written or read. Version 3
// added the per-frame sync marker and CRC32C checksum that make
// corruption detection and resynchronization possible; the checksum-less
// version 2 and the unframed version 1 are rejected. Any change to the
// byte layout below must bump this constant — the golden-file test pins
// the layout.
const Version = 3

// FrameMagic is the 4-byte sync marker that opens every frame. The
// lenient reader scans for it to find the next frame boundary after
// corruption; the leading 0xF7 byte never occurs in ASCII metadata and
// keeps accidental matches rare (the CRC rejects the rest).
const FrameMagic = "\xf7ORF"

// crcTable is the Castagnoli polynomial table shared by writer and reader.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultBatch is the default number of events per frame. Replay memory
// is bounded by the frame size, so this is the streaming layer's
// memory/syscall trade-off knob.
const DefaultBatch = 4096

// MaxBatch caps the writer's events-per-frame setting so that frames
// always stay decodable within MaxFramePayload.
const MaxBatch = 1 << 16

// MaxFramePayload is the largest frame payload a reader accepts. Frames
// written with any legal batch size are far smaller; the cap exists so a
// corrupt or hostile length field cannot make the reader allocate
// unboundedly.
const MaxFramePayload = 1 << 22

// MaxSites and MaxNameLen bound the header's site-name table for the same
// reason.
const (
	MaxSites   = 1 << 20
	MaxNameLen = 1 << 12
)

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("tracefmt: bad trace file")

// storeFlag is ORed into the kind byte of store accesses.
const storeFlag = 0x80

// Stats is the Reader's accounting of what it delivered and — in lenient
// mode — what it had to skip. In strict mode the skip counters stay zero
// (the first corruption is fatal).
type Stats struct {
	// Version is the format version of the trace being read.
	Version int
	// Frames counts frames whose payload validated and started delivering.
	Frames int64
	// Events counts events actually delivered to the caller.
	Events int64
	// Corruptions counts distinct corruption incidents: each detected
	// checksum failure, structural decode error, or truncation that forced
	// the lenient reader to abandon data and resynchronize.
	Corruptions int64
	// SkippedFrames counts damaged frames that were abandoned. A frame
	// abandoned mid-delivery counts in both Frames and SkippedFrames.
	SkippedFrames int64
	// SkippedEvents is the best-effort count of events lost in abandoned
	// frames, taken from each damaged frame's record-count field when that
	// field itself still parses. Corruption that destroys the count leaves
	// the loss uncounted here (Corruptions still records the incident).
	SkippedEvents int64
	// SkippedBytes counts input bytes discarded while scanning for the
	// next valid frame boundary.
	SkippedBytes int64
}

// Damaged reports whether any corruption was encountered.
func (s Stats) Damaged() bool { return s.Corruptions > 0 }

// CorruptionError is the typed error a lenient Reader returns once the
// trace is exhausted and at least one frame had to be skipped: every
// salvageable event was already delivered through Next, and the error
// carries the damage accounting. It wraps the first underlying decode
// error (which itself wraps ErrBadTrace), so errors.Is(err, ErrBadTrace)
// holds.
type CorruptionError struct {
	// Stats is the reader's final accounting, including the skip counters.
	Stats Stats
	// First is the first decode error encountered.
	First error
}

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf(
		"tracefmt: trace damaged but salvaged: %d corruption(s), skipped %d frame(s) / %d event(s) / %d byte(s), delivered %d event(s); first: %v",
		e.Stats.Corruptions, e.Stats.SkippedFrames, e.Stats.SkippedEvents,
		e.Stats.SkippedBytes, e.Stats.Events, e.First)
}

// Unwrap returns the first underlying decode error.
func (e *CorruptionError) Unwrap() error { return e.First }
