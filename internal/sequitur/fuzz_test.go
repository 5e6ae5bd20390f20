package sequitur

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRoundTrip drives the full build → encode → decode → expand chain with
// arbitrary byte sequences (mapped to a small alphabet to force heavy rule
// churn) and checks losslessness plus grammar invariants.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("abcbcabcbc"))
	f.Add([]byte("aaaaaaaaaa"))
	f.Add([]byte("abbbabcbb"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0})
	f.Add(bytes.Repeat([]byte{7, 7, 3}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]uint64, len(data))
		for i, b := range data {
			in[i] = uint64(b % 7)
		}
		g := New()
		g.AppendAll(in)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		out := g.Expand()
		if len(in) == 0 {
			if len(out) != 0 {
				t.Fatal("empty input expanded to symbols")
			}
			return
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatal("expand mismatch")
		}
		dec, err := Decode(g.Encode())
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		out2, err := dec.Expand()
		if err != nil {
			t.Fatalf("expand of decoded grammar: %v", err)
		}
		if !reflect.DeepEqual(out2, in) {
			t.Fatal("decode/expand mismatch")
		}
	})
}

// FuzzDecode feeds arbitrary bytes to the grammar decoder: it must reject
// or accept without panicking, and anything accepted must expand or report
// a cycle error.
func FuzzDecode(f *testing.F) {
	g := New()
	g.AppendAll([]uint64{1, 2, 1, 2, 3, 1, 2})
	f.Add(g.Encode())
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		dec.Expand() //nolint:errcheck // must only not panic
	})
}

// FuzzSnapshotRestore builds a grammar from the fuzz bytes, snapshots it,
// and damages the snapshot in one place the input picks: a body symbol, a
// rule ID, a digram ref, or NextID (or nowhere). FromSnapshot must either
// refuse the result or return a grammar that passes CheckInvariants and
// whose Expand terminates; the undamaged snapshot must restore exactly.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte("abcbcabcbc"), uint8(0), uint16(3), uint32(3))
	f.Add([]byte("abcbcabcbc"), uint8(0), uint16(1), uint32(2))
	f.Add([]byte("aaaaaaaaaa"), uint8(1), uint16(1), uint32(0))
	f.Add([]byte("abbbabcbb"), uint8(2), uint16(2), uint32(5))
	f.Add(bytes.Repeat([]byte{7, 7, 3}, 40), uint8(3), uint16(0), uint32(1))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4}, 9), uint8(4), uint16(0), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, what uint8, at uint16, val uint32) {
		in := make([]uint64, len(data))
		for i, b := range data {
			in[i] = uint64(b % 7)
		}
		g := New()
		g.AppendAll(in)
		snap, err := g.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of a live grammar: %v", err)
		}
		// Small values keep damaged rule references and positions landing
		// on real rules and symbols.
		id := val % (snap.NextID + 1)
		switch what % 5 {
		case 0:
			r := &snap.Rules[int(at)%len(snap.Rules)]
			if len(r.Body) > 0 {
				r.Body[int(at)/len(snap.Rules)%len(r.Body)] = Sym{Value: uint64(id), IsRule: val&1 == 0}
			}
		case 1:
			snap.Rules[int(at)%len(snap.Rules)].ID = id
		case 2:
			if len(snap.Digrams) > 0 {
				ref := &snap.Digrams[int(at)%len(snap.Digrams)]
				if val&1 == 0 {
					ref.Rule = id
				} else {
					ref.Pos = val >> 1 % 64
				}
			}
		case 3:
			snap.NextID = val
		case 4:
			r, err := FromSnapshot(snap)
			if err != nil {
				t.Fatalf("undamaged snapshot refused: %v", err)
			}
			if !bytes.Equal(r.Encode(), g.Encode()) {
				t.Fatal("undamaged snapshot restored to a different grammar")
			}
		}
		r, err := FromSnapshot(snap)
		if err != nil {
			return
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("restored grammar breaks invariants: %v", err)
		}
		r.Expand()
	})
}
