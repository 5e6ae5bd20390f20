// Package codec holds the byte-level rules every ormprof file and wire
// format shares, so they are written down once:
//
//   - varints are unsigned LEB128 (binary.AppendUvarint) or zig-zag signed
//     (binary.AppendVarint), and a reader accepts only the minimal
//     encoding of a value, so every value has exactly one byte form;
//   - a string or blob is a uvarint length followed by that many bytes;
//   - a sealed container is magic ‖ version byte ‖ u64le payload length ‖
//     u32le CRC-32C (Castagnoli) of the payload ‖ payload (ORMCKPT,
//     ORMRTAB and ORMPLAN).
//
// Writers append with the standard library plus AppendString and Seal.
// Readers use a Cursor over a byte slice, or ReadUvarint and ReadBytes
// for the length prefixes of a buffered stream. Every length is checked
// against a limit or against the bytes that remain before anything is
// allocated.
//
// Errors carry no package prefix: each format wraps them in its own typed
// error (*checkpoint.CorruptError, *plan.FormatError, ErrBadTrace, …) at
// its boundary.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The varint failures. A Cursor or stream read returns exactly one of
// these (or a limit error) for malformed input.
var (
	ErrTruncated  = errors.New("truncated input")
	ErrOverflow   = errors.New("varint overflows 64 bits")
	ErrNonMinimal = errors.New("non-minimal varint")
)

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Cursor reads a byte slice front to back. Its first error is sticky:
// once a read fails, every later read returns the zero value and Err
// reports that first failure, so a decoder can read a whole record and
// check once. A failed cursor reads as empty, which bounds any loop
// driven by a count the cursor returned.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.off = len(c.b)
}

// Err returns the first read failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Offset returns the number of bytes consumed so far.
func (c *Cursor) Offset() int { return c.off }

// End returns the first read failure, or an error if unread bytes remain.
func (c *Cursor) End() error {
	if c.err == nil && c.off != len(c.b) {
		return fmt.Errorf("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.off >= len(c.b) {
		c.fail(ErrTruncated)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// Uvarint reads a minimal unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.off < len(c.b) && c.b[c.off] < 0x80 {
		v := c.b[c.off]
		c.off++
		return uint64(v)
	}
	rest := c.b[c.off:]
	v, n := binary.Uvarint(rest)
	switch {
	case n == 0 && len(rest) < binary.MaxVarintLen64:
		c.fail(ErrTruncated)
	case n <= 0:
		c.fail(ErrOverflow)
	case rest[n-1] == 0:
		// A multi-byte varint ending in a zero byte has a shorter form.
		c.fail(ErrNonMinimal)
	default:
		c.off += n
		return v
	}
	return 0
}

// Varint reads a minimal zig-zag signed varint.
func (c *Cursor) Varint() int64 {
	ux := c.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Count reads a uvarint element count, failing if it exceeds max or the
// unread bytes: every element of every format costs at least one byte, so
// a larger count is corrupt, and the caller may size an allocation by it.
func (c *Cursor) Count(max uint64) int {
	n := c.Uvarint()
	switch {
	case n > max:
		c.fail(fmt.Errorf("count %d exceeds limit %d", n, max))
	case n > uint64(c.Len()):
		c.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, c.Len()))
	default:
		return int(n)
	}
	return 0
}

// Bytes reads the next n bytes. The result aliases the cursor's slice.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil || n < 0 || n > c.Len() {
		c.fail(ErrTruncated)
		return nil
	}
	out := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return out
}

// String reads a length-prefixed string of at most max bytes.
func (c *Cursor) String(max uint64) string {
	n := c.Uvarint()
	if n > max {
		c.fail(fmt.Errorf("string length %d exceeds limit %d", n, max))
		return ""
	}
	return string(c.Bytes(int(n)))
}

// ReadUvarint reads a minimal unsigned varint from a stream. It returns
// io.EOF only when the stream ends before the first byte.
func ReadUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, ErrOverflow
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, ErrNonMinimal
			}
			return v, nil
		}
	}
	return 0, ErrOverflow
}

// ReadBytes reads a uvarint length of at most max, then that many bytes
// into a fresh slice.
func ReadBytes(r *bufio.Reader, max uint64) ([]byte, error) {
	n, err := ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("length %d exceeds limit %d", n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// SealOverhead is the container header size after the magic: version,
// payload length and CRC.
const SealOverhead = 1 + 8 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps payload in the sealed container. A payload over max bytes is
// an error, so Open's bound holds for everything Seal writes.
func Seal(magic string, version byte, payload []byte, max int) ([]byte, error) {
	if len(payload) > max {
		return nil, fmt.Errorf("payload %d bytes exceeds limit %d", len(payload), max)
	}
	out := make([]byte, 0, len(magic)+SealOverhead+len(payload))
	out = append(out, magic...)
	out = append(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...), nil
}

// Open verifies a sealed container — magic, version, a length of at most
// max that matches the bytes present, and the CRC — and returns its
// payload, which aliases data.
func Open(data []byte, magic string, version byte, max int) ([]byte, error) {
	head := len(magic) + SealOverhead
	if len(data) < head {
		return nil, fmt.Errorf("file too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic %q", data[:len(magic)])
	}
	if v := data[len(magic)]; v != version {
		return nil, fmt.Errorf("unsupported version %d (want %d)", v, version)
	}
	n := binary.LittleEndian.Uint64(data[len(magic)+1:])
	if n > uint64(max) {
		return nil, fmt.Errorf("unreasonable payload length %d", n)
	}
	sum := binary.LittleEndian.Uint32(data[len(magic)+9:])
	payload := data[head:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("payload CRC %#08x, header says %#08x", got, sum)
	}
	return payload, nil
}
