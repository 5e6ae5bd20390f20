package plan

import (
	"bytes"
	"testing"
)

// FuzzPlanReader throws arbitrary bytes at the ORMPLAN reader. The decoder
// must never panic or over-allocate, must reject non-canonical encodings,
// and must round-trip exactly whatever it accepts.
func FuzzPlanReader(f *testing.F) {
	if seed, err := Encode(samplePlan()); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)-2])
		flip := append([]byte(nil), seed...)
		flip[headerSize+3] ^= 0x40
		f.Add(flip)
	}
	if empty, err := Encode(&Plan{}); err == nil {
		f.Add(empty)
	}
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			if !IsFormat(err) {
				t.Fatalf("non-format error from Read: %v", err)
			}
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("Decode accepted an invalid plan: %v", verr)
		}
		// Accepted plans re-encode to the identical bytes: the encoding is
		// canonical, so equality of files is equality of plans.
		out, err := Encode(p)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not byte-identical: %d vs %d bytes", len(out), len(data))
		}
	})
}
