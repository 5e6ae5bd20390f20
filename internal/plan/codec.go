package plan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ormprof/internal/atomicfile"
	"ormprof/internal/codec"
	"ormprof/internal/trace"
)

// On-disk form: the plan body below, sealed by internal/codec under magic
// "ORMPLAN" and version 1 (see docs/FORMATS.md, "Sealed container").
//
// Payload, all integers minimal unsigned LEB128 varints unless noted:
//
//	workload  len + bytes
//	region    base address of the packed-placement region
//	fields    count, then per entry (strictly sorted by site):
//	            site, recordSize, then recordSize/8 slot offsets
//	placements count, then per entry (strictly sorted by site, serial):
//	            site, serial, size, addr - region
//	prefetch  count, then per entry (strictly sorted by instr):
//	            instr, stride (signed varint), distance
//
// The sort orders are mandatory: there is exactly one valid encoding of a
// given plan, so byte-comparing two ORMPLAN files compares the plans.
const (
	// Magic identifies an ORMPLAN file.
	Magic = "ORMPLAN"
	// Version is the current container version.
	Version = 1
	// MaxPayload bounds the payload length field so a corrupt header
	// cannot drive a huge allocation.
	MaxPayload = 1 << 28

	maxWorkload   = 4096
	maxRecordSize = 1 << 20
	maxFields     = 1 << 16
	maxPlacements = 1 << 24
	maxRules      = 1 << 20
)

// FormatError reports a structurally invalid ORMPLAN container or payload.
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string { return "ormplan: " + e.Reason }

// IsFormat reports whether err is a *FormatError.
func IsFormat(err error) bool {
	var fe *FormatError
	return errors.As(err, &fe)
}

func formatf(format string, args ...any) error {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// Encode serializes the plan, validating it first.
func Encode(p *Plan) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	body := codec.AppendString(nil, p.Workload)
	body = binary.AppendUvarint(body, uint64(p.Region))
	body = binary.AppendUvarint(body, uint64(len(p.Fields)))
	for i := range p.Fields {
		f := &p.Fields[i]
		body = binary.AppendUvarint(body, uint64(f.Site))
		body = binary.AppendUvarint(body, uint64(f.RecordSize))
		for _, off := range f.NewOffset {
			body = binary.AppendUvarint(body, uint64(off))
		}
	}
	body = binary.AppendUvarint(body, uint64(len(p.Placements)))
	for i := range p.Placements {
		pl := &p.Placements[i]
		body = binary.AppendUvarint(body, uint64(pl.Site))
		body = binary.AppendUvarint(body, uint64(pl.Serial))
		body = binary.AppendUvarint(body, uint64(pl.Size))
		body = binary.AppendUvarint(body, uint64(pl.Addr-p.Region))
	}
	body = binary.AppendUvarint(body, uint64(len(p.Prefetch)))
	for i := range p.Prefetch {
		r := &p.Prefetch[i]
		body = binary.AppendUvarint(body, uint64(r.Instr))
		body = binary.AppendVarint(body, r.Stride)
		body = binary.AppendUvarint(body, uint64(r.Distance))
	}
	out, err := codec.Seal(Magic, Version, body, MaxPayload)
	if err != nil {
		return nil, &FormatError{Reason: err.Error()}
	}
	return out, nil
}

// Decode parses a complete ORMPLAN file image, validating the container and
// the plan's invariants. All errors are *FormatError.
func Decode(data []byte) (*Plan, error) {
	body, err := codec.Open(data, Magic, Version, MaxPayload)
	if err != nil {
		return nil, &FormatError{Reason: err.Error()}
	}
	c := codec.NewCursor(body)
	p := &Plan{Workload: c.String(maxWorkload)}
	region := c.Uvarint()
	p.Region = trace.Addr(region)

	nFields := c.Count(maxFields)
	for i := 0; i < nFields; i++ {
		site, rs := c.Uvarint(), c.Uvarint()
		if c.Err() != nil {
			break
		}
		if rs == 0 || rs > maxRecordSize || rs%SlotSize != 0 || rs/SlotSize > uint64(c.Len()) {
			return nil, formatf("field order %d: record size %d invalid", i, rs)
		}
		f := FieldOrder{Site: trace.SiteID(site), RecordSize: uint32(rs), NewOffset: make([]uint32, rs/SlotSize)}
		for s := range f.NewOffset {
			off := c.Uvarint()
			if off >= rs {
				return nil, formatf("field order %d: slot offset %d out of record", i, off)
			}
			f.NewOffset[s] = uint32(off)
		}
		p.Fields = append(p.Fields, f)
	}

	nPlace := c.Count(maxPlacements)
	for i := 0; i < nPlace; i++ {
		site, serial, size, delta := c.Uvarint(), c.Uvarint(), c.Uvarint(), c.Uvarint()
		if site > 1<<32-1 || serial > 1<<32-1 || size > 1<<32-1 {
			return nil, formatf("placement %d: field overflows 32 bits", i)
		}
		addr := region + delta
		if addr < region {
			return nil, formatf("placement %d: address overflows", i)
		}
		p.Placements = append(p.Placements, ObjectPlacement{
			Site: trace.SiteID(site), Serial: uint32(serial), Size: uint32(size), Addr: trace.Addr(addr)})
	}

	nRules := c.Count(maxRules)
	for i := 0; i < nRules; i++ {
		instr, stride, dist := c.Uvarint(), c.Varint(), c.Uvarint()
		if instr > 1<<32-1 || dist > 1<<31 {
			return nil, formatf("prefetch rule %d: field out of range", i)
		}
		p.Prefetch = append(p.Prefetch, PrefetchRule{Instr: trace.InstrID(instr), Stride: stride, Distance: int64(dist)})
	}

	if err := c.End(); err != nil {
		return nil, formatf("payload: %v", err)
	}
	if err := p.Validate(); err != nil {
		return nil, &FormatError{Reason: err.Error()}
	}
	return p, nil
}

// Read decodes a plan from r (reading to EOF).
func Read(r io.Reader) (*Plan, error) {
	data, err := io.ReadAll(io.LimitReader(r, int64(len(Magic)+codec.SealOverhead+MaxPayload+1)))
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Save writes the plan to path crash-atomically via internal/atomicfile
// (tmp + fsync + rename), mirroring checkpoint.Save: a reader sees either
// the old file or the new, and a failed write surfaces as a typed
// *atomicfile.WriteError with the previous durable copy intact.
func Save(path string, p *Plan) error {
	data, err := Encode(p)
	if err != nil {
		return err
	}
	return atomicfile.Write(path, data)
}

// Load reads and validates the plan at path.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
