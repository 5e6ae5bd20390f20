package leap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ormprof/internal/codec"
	"ormprof/internal/lmad"
	"ormprof/internal/omc"
	"ormprof/internal/trace"
)

// LEAP profile file format:
//
//	magic    "ORMLEAP1"
//	string   workload
//	uvarint  record count
//	uvarint  instruction count
//	per instruction (ascending ID): uvarint id, uvarint execs, u8 isStore
//	uvarint  stream count
//	per stream (ascending (instr, group)):
//	  uvarint instr, uvarint group,
//	  u8 flags (bit0 store, bit1 overflowed, bit2 offset-overflowed)
//	  uvarint offered, uvarint captured, uvarint offsetCaptured
//	  uvarint lmadCount
//	  per LMAD: 3 × varint start, 3 × varint stride, uvarint count
//	  if overflowed: 3 × varint min, 3 × varint max, 3 × varint granularity,
//	                 uvarint summarized point count
//	  uvarint offsetLmadCount
//	  per offset LMAD: 2 × varint start, 2 × varint stride, uvarint count,
//	                   uvarint reps
//
// Signed quantities use zig-zag varints (binary.AppendVarint).

const leapMagic = "ORMLEAP1"

// ErrBadProfile reports a malformed LEAP profile file.
var ErrBadProfile = errors.New("leap: bad profile file")

// maxString bounds the workload name ReadProfile accepts.
const maxString = 1 << 20

// EncodedSize returns the exact serialized size in bytes, which Table 1's
// compression ratio uses.
func (p *Profile) EncodedSize() int {
	return len(p.appendTo(nil))
}

// WriteTo serializes the profile.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.appendTo(nil))
	return int64(n), err
}

func appendVarints(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// appendTo appends the profile's serialized form to b.
func (p *Profile) appendTo(b []byte) []byte {
	b = append(b, leapMagic...)
	b = codec.AppendString(b, p.Workload)
	b = binary.AppendUvarint(b, p.Records)

	instrs := p.Instrs()
	b = binary.AppendUvarint(b, uint64(len(instrs)))
	for _, id := range instrs {
		b = binary.AppendUvarint(b, uint64(id))
		b = binary.AppendUvarint(b, p.InstrExecs[id])
		store := byte(0)
		if p.InstrStore[id] {
			store = 1
		}
		b = append(b, store)
	}

	keys := p.Keys()
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		s := p.Streams[k]
		b = binary.AppendUvarint(b, uint64(k.Instr))
		b = binary.AppendUvarint(b, uint64(k.Group))
		flags := byte(0)
		if s.Store {
			flags |= 1
		}
		if s.Overflowed {
			flags |= 2
		}
		if s.OffsetOverflowed {
			flags |= 4
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, s.Offered)
		b = binary.AppendUvarint(b, s.Captured)
		b = binary.AppendUvarint(b, s.OffsetCaptured)
		b = binary.AppendUvarint(b, uint64(len(s.LMADs)))
		for i := range s.LMADs {
			l := &s.LMADs[i]
			b = appendVarints(b, l.Start[:NumDims])
			b = appendVarints(b, l.Stride[:NumDims])
			b = binary.AppendUvarint(b, uint64(l.Count))
		}
		if s.Overflowed {
			b = appendVarints(b, s.Summary.Min[:NumDims])
			b = appendVarints(b, s.Summary.Max[:NumDims])
			b = appendVarints(b, s.Summary.Granularity[:NumDims])
			b = binary.AppendUvarint(b, s.Summary.Points)
		}
		b = binary.AppendUvarint(b, uint64(len(s.OffsetLMADs)))
		for i := range s.OffsetLMADs {
			l := &s.OffsetLMADs[i]
			b = appendVarints(b, l.Start[:2])
			b = appendVarints(b, l.Stride[:2])
			b = binary.AppendUvarint(b, uint64(l.Count))
			b = binary.AppendUvarint(b, uint64(l.Reps))
		}
	}
	return b
}

func readVarints(c *codec.Cursor, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = c.Varint()
	}
	return vs
}

// ReadProfile parses a profile written by WriteTo.
func ReadProfile(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	if !bytes.HasPrefix(data, []byte(leapMagic)) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadProfile)
	}
	c := codec.NewCursor(data[len(leapMagic):])
	p := &Profile{
		Workload:   c.String(maxString),
		Records:    c.Uvarint(),
		Streams:    make(map[StreamKey]*Stream),
		InstrExecs: make(map[trace.InstrID]uint64),
		InstrStore: make(map[trace.InstrID]bool),
	}
	nInstr := c.Count(math.MaxUint64)
	for i := 0; i < nInstr; i++ {
		id, execs, store := trace.InstrID(c.Uvarint()), c.Uvarint(), c.Byte()
		p.InstrExecs[id] = execs
		p.InstrStore[id] = store == 1
	}
	nStreams := c.Count(math.MaxUint64)
	for i := 0; i < nStreams; i++ {
		s := &Stream{Key: StreamKey{Instr: trace.InstrID(c.Uvarint()), Group: omc.GroupID(c.Uvarint())}}
		flags := c.Byte()
		s.Store = flags&1 != 0
		s.Overflowed = flags&2 != 0
		s.OffsetOverflowed = flags&4 != 0
		s.Offered, s.Captured, s.OffsetCaptured = c.Uvarint(), c.Uvarint(), c.Uvarint()
		for j, n := 0, c.Count(math.MaxUint64); j < n; j++ {
			s.LMADs = append(s.LMADs, lmad.LMAD{
				Start: readVarints(&c, NumDims), Stride: readVarints(&c, NumDims), Count: uint32(c.Uvarint())})
		}
		if s.Overflowed {
			s.Summary.Min = readVarints(&c, NumDims)
			s.Summary.Max = readVarints(&c, NumDims)
			s.Summary.Granularity = readVarints(&c, NumDims)
			s.Summary.Points = c.Uvarint()
		}
		for j, n := 0, c.Count(math.MaxUint64); j < n; j++ {
			s.OffsetLMADs = append(s.OffsetLMADs, lmad.RepLMAD{
				LMAD: lmad.LMAD{Start: readVarints(&c, 2), Stride: readVarints(&c, 2), Count: uint32(c.Uvarint())},
				Reps: uint32(c.Uvarint())})
		}
		p.Streams[s.Key] = s
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	return p, nil
}
