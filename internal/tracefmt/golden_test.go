package tracefmt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ormprof/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace fixture")

// goldenEvents is a small, fixed stream exercising every record shape:
// loads, stores, allocs, frees, forward and backward address deltas, and a
// frame boundary (batch 4 over 10 events → three frames).
func goldenEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.EvAlloc, Time: 0, Site: 1, Addr: 0x40000000, Size: 64},
		{Kind: trace.EvAlloc, Time: 0, Site: 2, Addr: 0x40000040, Size: 128},
		{Kind: trace.EvAccess, Time: 1, Instr: 10, Addr: 0x40000000, Size: 8},
		{Kind: trace.EvAccess, Time: 2, Instr: 10, Addr: 0x40000008, Size: 8},
		{Kind: trace.EvAccess, Time: 3, Instr: 11, Addr: 0x40000040, Size: 4, Store: true},
		{Kind: trace.EvAccess, Time: 4, Instr: 10, Addr: 0x40000010, Size: 8},
		{Kind: trace.EvAccess, Time: 5, Instr: 12, Addr: 0x40000020, Size: 2},
		{Kind: trace.EvFree, Time: 6, Addr: 0x40000000},
		{Kind: trace.EvAccess, Time: 7, Instr: 11, Addr: 0x40000044, Size: 4, Store: true},
		{Kind: trace.EvFree, Time: 8, Addr: 0x40000040},
	}
}

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WithName("golden"), WithBatch(4))
	w.NameSite(1, "node")
	w.NameSite(2, "table")
	for _, e := range goldenEvents() {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFile pins the on-disk byte layout: re-encoding the fixed event
// stream must reproduce the committed fixture exactly. If this fails, the
// format changed — bump Version and regenerate with -update-golden rather
// than silently breaking old traces.
func TestGoldenFile(t *testing.T) {
	path := filepath.Join("testdata", "golden_v3.ormtrace")
	got := goldenBytes(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoded bytes differ from committed fixture %s\n got:  %x\n want: %x",
			path, got, want)
	}

	// And the committed fixture must still decode to the original events.
	decodeGolden(t, want)
}

func decodeGolden(t *testing.T, data []byte) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version {
		t.Errorf("Version = %d, want %d", r.Version(), Version)
	}
	if r.Name() != "golden" {
		t.Errorf("Name = %q, want golden", r.Name())
	}
	if s := r.Sites(); s[1] != "node" || s[2] != "table" {
		t.Errorf("Sites = %v", s)
	}
	events, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEvents()
	if len(events) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}
