package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ormprof/internal/codec"
)

func TestRouterTableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "router.rtab")
	st := &RouterState{
		Epoch:  3,
		Shards: []string{"10.0.0.2:7417", "10.0.0.3:7417"},
		Routes: map[string]string{
			"run7":     "10.0.0.2:7417",
			"soak-kr":  "10.0.0.3:7417",
			"baseline": "10.0.0.2:7417",
		},
	}
	if err := SaveRouterTable(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRouterTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != st.Epoch || !reflect.DeepEqual(got.Shards, st.Shards) || !reflect.DeepEqual(got.Routes, st.Routes) {
		t.Errorf("round trip: got %+v want %+v", got, st)
	}

	// An empty table round-trips too — the common no-reroutes case.
	if err := SaveRouterTable(path, &RouterState{Epoch: 1, Shards: []string{"h:1"}}); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadRouterTable(path); err != nil || len(got.Routes) != 0 || got.Epoch != 1 {
		t.Errorf("empty table: got %+v, %v", got, err)
	}
}

// TestRouterTableCanonical: equal states must encode equal bytes — the
// replication plane byte-compares tables, and map iteration order must
// not leak into the container.
func TestRouterTableCanonical(t *testing.T) {
	mk := func() *RouterState {
		return &RouterState{
			Epoch:  7,
			Shards: []string{"a:1", "b:1", "c:1"},
			Routes: map[string]string{"s1": "a:1", "s2": "b:1", "s3": "c:1", "s4": "a:1"},
		}
	}
	first, err := EncodeRouterTable(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := EncodeRouterTable(mk())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding is not canonical: differs on attempt %d", i)
		}
	}
}

func TestRouterTableMissingFile(t *testing.T) {
	_, err := LoadRouterTable(filepath.Join(t.TempDir(), "absent.rtab"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want os.ErrNotExist", err)
	}
}

func TestRouterTableCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "router.rtab")
	err := SaveRouterTable(path, &RouterState{
		Epoch:  2,
		Shards: []string{"h:1", "h:2"},
		Routes: map[string]string{"s": "h:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated-header":  good[:len(RouterMagic)+2],
		"truncated-payload": good[:len(good)-1],
		"bad-magic":         append([]byte("ORMWRONG"), good[8:]...),
		"bad-version":       append(append([]byte(RouterMagic), 99), good[len(RouterMagic)+1:]...),
		"flipped-byte": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0xff
			return b
		}(),
		"flipped-epoch": func() []byte {
			// Damage inside the payload region: CRC must catch it.
			b := append([]byte(nil), good...)
			b[len(RouterMagic)+1+8+4+4] ^= 0x01
			return b
		}(),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRouterTable(p); !IsCorrupt(err) {
			t.Errorf("%s: got %v, want *CorruptError", name, err)
		}
	}
}

// TestRouterTableInvalidContents: containers whose framing is intact but
// whose decoded payload violates the format's invariants are corrupt too,
// and so are the routes-only version 1 and the topology-less epoch 0 it
// used to load as.
func TestRouterTableInvalidContents(t *testing.T) {
	frame := func(t *testing.T, version byte, payload any) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
			t.Fatal(err)
		}
		data, err := codec.Seal(RouterMagic, version, buf.Bytes(), MaxRouterPayload)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string]gobRouterState{
		"duplicate-shard":    {Epoch: 1, Shards: []string{"h:1", "h:1"}},
		"empty-shard":        {Epoch: 1, Shards: []string{""}},
		"epoch-no-shards":    {Epoch: 4},
		"epoch-zero":         {Shards: []string{"h:1"}, Routes: []Route{{"s", "h:1"}}},
		"duplicate-session":  {Epoch: 1, Shards: []string{"h:1"}, Routes: []Route{{"s", "h:1"}, {"s", "h:1"}}},
		"empty-route-fields": {Epoch: 1, Shards: []string{"h:1"}, Routes: []Route{{"", ""}}},
	}
	for name, g := range cases {
		if _, err := DecodeRouterTable(name, frame(t, RouterVersion, &g)); !IsCorrupt(err) {
			t.Errorf("%s: got %v, want *CorruptError", name, err)
		}
	}
	v1 := struct{ Routes []Route }{Routes: []Route{{"old-a", "h:1"}, {"old-b", "h:2"}}}
	if _, err := DecodeRouterTable("version-1", frame(t, 1, &v1)); !IsCorrupt(err) {
		t.Errorf("version-1: got %v, want *CorruptError", err)
	}
}

// FuzzRouterTable drives the ORMRTAB decoder with mutated containers. The
// decoder must never panic, and any input it accepts must re-encode to a
// container it accepts again with identical meaning (round-trip fixpoint).
func FuzzRouterTable(f *testing.F) {
	seed := func(st *RouterState) []byte {
		b, err := EncodeRouterTable(st)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(&RouterState{Epoch: 1, Shards: []string{"h:1"}}))
	f.Add(seed(&RouterState{
		Epoch:  9,
		Shards: []string{"10.0.0.2:7417", "10.0.0.3:7417", "10.0.0.4:7417"},
		Routes: map[string]string{"cl-a": "10.0.0.3:7417", "cl-b": "10.0.0.2:7417"},
	}))
	good := seed(&RouterState{Epoch: 2, Shards: []string{"a:1", "b:1"}, Routes: map[string]string{"s": "b:1"}})
	f.Add(good[:len(good)-3])                      // truncated payload
	f.Add(append([]byte("ORMWRONG"), good[8:]...)) // bad magic
	mut := append([]byte(nil), good...)
	mut[len(mut)-1] ^= 0x40 // CRC-detectable damage
	f.Add(mut)
	f.Add([]byte(RouterMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeRouterTable("fuzz", data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("decode error is not *CorruptError: %v", err)
			}
			return
		}
		out, err := EncodeRouterTable(st)
		if err != nil {
			t.Fatalf("accepted state fails to re-encode: %v", err)
		}
		st2, err := DecodeRouterTable("fuzz-reencoded", out)
		if err != nil {
			t.Fatalf("re-encoded container rejected: %v", err)
		}
		if st2.Epoch != st.Epoch || !reflect.DeepEqual(st2.Shards, st.Shards) || !reflect.DeepEqual(st2.Routes, st.Routes) {
			t.Fatalf("round trip drift: %+v vs %+v", st, st2)
		}
	})
}
