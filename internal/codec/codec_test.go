package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

var uvarints = []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 32, math.MaxUint64 >> 1, math.MaxUint64}
var varints = []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64}

func TestCursorRoundTrip(t *testing.T) {
	var b []byte
	for _, v := range uvarints {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range varints {
		b = binary.AppendVarint(b, v)
	}
	b = AppendString(b, "héllo")
	b = append(b, 0xAB)
	c := NewCursor(b)
	for _, want := range uvarints {
		if got := c.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range varints {
		if got := c.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	if got := c.String(16); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	if got := c.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
}

// padded returns v's minimal uvarint encoding stretched by extra
// continuation bytes: the same value, in a longer (non-minimal) form.
func padded(v uint64, extra int) []byte {
	b := binary.AppendUvarint(nil, v)
	for i := 0; i < extra; i++ {
		b[len(b)-1] |= 0x80
		b = append(b, 0)
	}
	return b
}

// TestMinimalVarintRule is the one statement of the canonical-varint
// rule: every longer encoding of a value is rejected, by the slice cursor
// and by the stream read alike, while the standard library accepts it.
func TestMinimalVarintRule(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 1 << 40} {
		for extra := 1; len(binary.AppendUvarint(nil, v))+extra <= binary.MaxVarintLen64; extra++ {
			enc := padded(v, extra)
			if got, n := binary.Uvarint(enc); n != len(enc) || got != v {
				t.Fatalf("padded(%d, %d) = %x does not decode to %d", v, extra, enc, v)
			}
			c := NewCursor(enc)
			c.Uvarint()
			if !errors.Is(c.Err(), ErrNonMinimal) {
				t.Errorf("Cursor.Uvarint(%x): err %v, want ErrNonMinimal", enc, c.Err())
			}
			c = NewCursor(enc)
			c.Varint()
			if !errors.Is(c.Err(), ErrNonMinimal) {
				t.Errorf("Cursor.Varint(%x): err %v, want ErrNonMinimal", enc, c.Err())
			}
			if _, err := ReadUvarint(bytes.NewReader(enc)); !errors.Is(err, ErrNonMinimal) {
				t.Errorf("ReadUvarint(%x): err %v, want ErrNonMinimal", enc, err)
			}
		}
	}
}

func TestVarintMalformed(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)
	tenth := append(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64-1), 0x02)
	for _, tc := range []struct {
		in   []byte
		want error
	}{
		{nil, ErrTruncated},
		{[]byte{0x80}, ErrTruncated},
		{[]byte{0xff, 0xff}, ErrTruncated},
		{overflow, ErrOverflow},
		{tenth, ErrOverflow},
	} {
		c := NewCursor(tc.in)
		c.Uvarint()
		if !errors.Is(c.Err(), tc.want) {
			t.Errorf("Cursor.Uvarint(%x): err %v, want %v", tc.in, c.Err(), tc.want)
		}
		want := tc.want
		if want == ErrTruncated {
			want = io.ErrUnexpectedEOF
			if len(tc.in) == 0 {
				want = io.EOF
			}
		}
		if _, err := ReadUvarint(bytes.NewReader(tc.in)); !errors.Is(err, want) {
			t.Errorf("ReadUvarint(%x): err %v, want %v", tc.in, err, want)
		}
	}
}

// TestCursorSticky: after the first failure every read yields the zero
// value, the first error is kept, and a count read afterwards is 0, so a
// loop driven by it cannot run away.
func TestCursorSticky(t *testing.T) {
	c := NewCursor([]byte{0x80})
	c.Uvarint()
	first := c.Err()
	if !errors.Is(first, ErrTruncated) {
		t.Fatalf("err %v", first)
	}
	if c.Uvarint() != 0 || c.Varint() != 0 || c.Byte() != 0 || c.String(9) != "" || c.Bytes(0) != nil || c.Count(9) != 0 {
		t.Error("a failed cursor returned data")
	}
	if c.Err() != first || c.End() != first {
		t.Errorf("sticky error replaced: %v", c.Err())
	}
}

func TestCursorLimits(t *testing.T) {
	c := NewCursor(AppendString(nil, "toolong"))
	if c.String(3); c.Err() == nil || !strings.Contains(c.Err().Error(), "exceeds limit") {
		t.Errorf("String over limit: err %v", c.Err())
	}
	c = NewCursor(binary.AppendUvarint(nil, 1<<40))
	if c.String(math.MaxUint64); !errors.Is(c.Err(), ErrTruncated) {
		t.Errorf("String past the input: err %v", c.Err())
	}
	c = NewCursor([]byte{5, 1, 2})
	if n := c.Count(100); n != 0 || c.Err() == nil {
		t.Errorf("Count beyond the bytes left = %d, err %v", n, c.Err())
	}
	c = NewCursor([]byte{5, 1, 2, 3, 4, 5})
	if n := c.Count(4); n != 0 || c.Err() == nil {
		t.Errorf("Count over limit = %d, err %v", n, c.Err())
	}
	c = NewCursor([]byte{2, 1, 2})
	if n := c.Count(4); n != 2 || c.Err() != nil {
		t.Errorf("Count = %d, err %v", n, c.Err())
	}
	c = NewCursor([]byte{1, 2, 3})
	if b := c.Bytes(2); !bytes.Equal(b, []byte{1, 2}) || c.Offset() != 2 || c.Len() != 1 {
		t.Errorf("Bytes = %x, offset %d, len %d", b, c.Offset(), c.Len())
	}
	if err := c.End(); err == nil {
		t.Error("End accepted a trailing byte")
	}
	if c.Bytes(2); !errors.Is(c.Err(), ErrTruncated) {
		t.Errorf("Bytes past the end: err %v", c.Err())
	}
}

func TestReadBytes(t *testing.T) {
	in := AppendString(AppendString(nil, "abc"), "defgh")
	br := bufio.NewReader(bytes.NewReader(in))
	if b, err := ReadBytes(br, 8); err != nil || string(b) != "abc" {
		t.Fatalf("ReadBytes = %q, %v", b, err)
	}
	if _, err := ReadBytes(br, 4); err == nil {
		t.Error("ReadBytes accepted a length over its limit")
	}
	br = bufio.NewReader(bytes.NewReader(in[:3]))
	if _, err := ReadBytes(br, 8); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: err %v", err)
	}
	br = bufio.NewReader(bytes.NewReader(nil))
	if _, err := ReadBytes(br, 8); err != io.EOF {
		t.Errorf("empty stream: err %v, want io.EOF", err)
	}
}

func TestSealOpen(t *testing.T) {
	payload := []byte("the payload")
	sealed, err := Seal("MAGIC", 3, payload, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != len("MAGIC")+SealOverhead+len(payload) {
		t.Fatalf("sealed %d bytes", len(sealed))
	}
	got, err := Open(sealed, "MAGIC", 3, 64)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Open = %q, %v", got, err)
	}
	if _, err := Seal("MAGIC", 3, payload, 4); err == nil {
		t.Error("Seal accepted a payload over its bound")
	}
	if _, err := Open(sealed, "MAGIC", 3, 4); err == nil {
		t.Error("Open accepted a payload length over its bound")
	}
	if _, err := Open(sealed, "MAGIX", 3, 64); err == nil {
		t.Error("Open accepted the wrong magic")
	}
	if _, err := Open(sealed, "MAGIC", 4, 64); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("wrong version: err %v", err)
	}
	for off := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[off] ^= 0x10
		if _, err := Open(bad, "MAGIC", 3, 64); err == nil {
			t.Errorf("flip at %d accepted", off)
		}
	}
	for n := 0; n < len(sealed); n++ {
		if _, err := Open(sealed[:n], "MAGIC", 3, 64); err == nil {
			t.Errorf("truncation to %d accepted", n)
		}
	}
}
