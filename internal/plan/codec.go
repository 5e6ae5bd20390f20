package plan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ormprof/internal/atomicfile"
	"ormprof/internal/trace"
)

// On-disk container (see docs/FORMATS.md):
//
//	magic   "ORMPLAN" (7 bytes)
//	version 1 byte (currently 1)
//	length  8 bytes little-endian: payload byte count
//	crc     4 bytes little-endian: CRC-32C (Castagnoli) of the payload
//	payload varint-encoded plan body (below)
//
// Payload, all integers unsigned LEB128 varints unless noted:
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

	headerSize = len(Magic) + 1 + 8 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(p.Workload)))
	body = append(body, p.Workload...)
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
	if len(body) > MaxPayload {
		return nil, formatf("payload %d bytes exceeds max %d", len(body), MaxPayload)
	}

	out := make([]byte, 0, headerSize+len(body))
	out = append(out, Magic...)
	out = append(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	out = append(out, body...)
	return out, nil
}

// cursor is a bounds-checked varint reader over the payload.
type cursor struct {
	b   []byte
	pos int
}

// uvarintLen is the minimal encoded size of v; the decoders reject padded
// encodings so that every plan has exactly one byte representation.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (c *cursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, formatf("truncated or overlong varint reading %s", what)
	}
	if n != uvarintLen(v) {
		return 0, formatf("non-minimal varint reading %s", what)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) varint(what string) (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, formatf("truncated or overlong varint reading %s", what)
	}
	if n != uvarintLen(uint64(v)<<1^uint64(v>>63)) {
		return 0, formatf("non-minimal varint reading %s", what)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) bytes(n int, what string) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.b) {
		return nil, formatf("truncated %s", what)
	}
	out := c.b[c.pos : c.pos+n]
	c.pos += n
	return out, nil
}

// Decode parses a complete ORMPLAN file image, validating the container and
// the plan's invariants. All errors are *FormatError.
func Decode(data []byte) (*Plan, error) {
	if len(data) < headerSize {
		return nil, formatf("file %d bytes, header is %d", len(data), headerSize)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, formatf("bad magic %q", data[:len(Magic)])
	}
	if v := data[len(Magic)]; v != Version {
		return nil, formatf("unsupported version %d (want %d)", v, Version)
	}
	length := binary.LittleEndian.Uint64(data[len(Magic)+1:])
	if length > MaxPayload {
		return nil, formatf("payload length %d exceeds max %d", length, MaxPayload)
	}
	crc := binary.LittleEndian.Uint32(data[len(Magic)+9:])
	body := data[headerSize:]
	if uint64(len(body)) != length {
		return nil, formatf("payload %d bytes, header says %d", len(body), length)
	}
	if got := crc32.Checksum(body, crcTable); got != crc {
		return nil, formatf("payload crc %#x, header says %#x", got, crc)
	}

	c := &cursor{b: body}
	p := &Plan{}
	nameLen, err := c.uvarint("workload length")
	if err != nil {
		return nil, err
	}
	if nameLen > maxWorkload {
		return nil, formatf("workload name %d bytes (max %d)", nameLen, maxWorkload)
	}
	name, err := c.bytes(int(nameLen), "workload name")
	if err != nil {
		return nil, err
	}
	p.Workload = string(name)
	region, err := c.uvarint("region")
	if err != nil {
		return nil, err
	}
	p.Region = trace.Addr(region)

	nFields, err := c.uvarint("field count")
	if err != nil {
		return nil, err
	}
	if nFields > maxFields {
		return nil, formatf("%d field orders (max %d)", nFields, maxFields)
	}
	for i := uint64(0); i < nFields; i++ {
		var f FieldOrder
		site, err := c.uvarint("field site")
		if err != nil {
			return nil, err
		}
		rs, err := c.uvarint("record size")
		if err != nil {
			return nil, err
		}
		if rs == 0 || rs > maxRecordSize || rs%SlotSize != 0 {
			return nil, formatf("field order %d: record size %d invalid", i, rs)
		}
		f.Site = trace.SiteID(site)
		f.RecordSize = uint32(rs)
		f.NewOffset = make([]uint32, rs/SlotSize)
		for s := range f.NewOffset {
			off, err := c.uvarint("slot offset")
			if err != nil {
				return nil, err
			}
			if off >= rs {
				return nil, formatf("field order %d: slot offset %d out of record", i, off)
			}
			f.NewOffset[s] = uint32(off)
		}
		p.Fields = append(p.Fields, f)
	}

	nPlace, err := c.uvarint("placement count")
	if err != nil {
		return nil, err
	}
	if nPlace > maxPlacements {
		return nil, formatf("%d placements (max %d)", nPlace, maxPlacements)
	}
	for i := uint64(0); i < nPlace; i++ {
		var pl ObjectPlacement
		site, err := c.uvarint("placement site")
		if err != nil {
			return nil, err
		}
		serial, err := c.uvarint("placement serial")
		if err != nil {
			return nil, err
		}
		size, err := c.uvarint("placement size")
		if err != nil {
			return nil, err
		}
		delta, err := c.uvarint("placement address")
		if err != nil {
			return nil, err
		}
		if site > 1<<32-1 || serial > 1<<32-1 || size > 1<<32-1 {
			return nil, formatf("placement %d: field overflows 32 bits", i)
		}
		addr := region + delta
		if addr < region {
			return nil, formatf("placement %d: address overflows", i)
		}
		pl.Site = trace.SiteID(site)
		pl.Serial = uint32(serial)
		pl.Size = uint32(size)
		pl.Addr = trace.Addr(addr)
		p.Placements = append(p.Placements, pl)
	}

	nRules, err := c.uvarint("prefetch count")
	if err != nil {
		return nil, err
	}
	if nRules > maxRules {
		return nil, formatf("%d prefetch rules (max %d)", nRules, maxRules)
	}
	for i := uint64(0); i < nRules; i++ {
		var r PrefetchRule
		instr, err := c.uvarint("rule instruction")
		if err != nil {
			return nil, err
		}
		stride, err := c.varint("rule stride")
		if err != nil {
			return nil, err
		}
		dist, err := c.uvarint("rule distance")
		if err != nil {
			return nil, err
		}
		if instr > 1<<32-1 || dist > 1<<31 {
			return nil, formatf("prefetch rule %d: field out of range", i)
		}
		r.Instr = trace.InstrID(instr)
		r.Stride = stride
		r.Distance = int64(dist)
		p.Prefetch = append(p.Prefetch, r)
	}

	if c.pos != len(body) {
		return nil, formatf("%d trailing payload bytes", len(body)-c.pos)
	}
	if err := p.Validate(); err != nil {
		return nil, &FormatError{Reason: err.Error()}
	}
	return p, nil
}

// Read decodes a plan from r (reading to EOF).
func Read(r io.Reader) (*Plan, error) {
	data, err := io.ReadAll(io.LimitReader(r, int64(headerSize+MaxPayload+1)))
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
