package checkpoint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ormprof/internal/govern"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden ORMCKPT/ORMRTAB fixtures")

// goldenState is a short session's state at the full rung: every
// component snapshot present, plus the ladder snapshot a daemon session
// writes next to them.
func goldenState(t *testing.T) *State {
	st := buildState(t, 300)
	st.Ladder = &govern.Snapshot{Rung: govern.RungFull, Events: 300, Seed: 42, SampleMod: govern.DefaultSampleMod}
	return st
}

func goldenRouterState() *RouterState {
	return &RouterState{
		Epoch:  3,
		Shards: []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"},
		Routes: map[string]string{"alpha": "127.0.0.1:7002", "beta": "127.0.0.1:7001", "gamma": "127.0.0.1:7003"},
	}
}

// checkGolden compares got with the fixture at path (rewriting it first
// under -update-golden) and returns the fixture bytes.
func checkGolden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		t.Fatalf("encoding drifted from golden fixture %s: %d bytes vs %d", path, len(got), len(want))
	}
	return want
}

// TestGoldenCheckpoint pins the ORMCKPT v1 bytes: if this fails, the
// checkpoint format changed — bump Version and regenerate with
// -update-golden rather than silently orphaning checkpoints on disk.
func TestGoldenCheckpoint(t *testing.T) {
	st := goldenState(t)
	got, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	want := checkGolden(t, filepath.Join("testdata", "golden_v1.ormckpt"), got)
	back, err := Decode("golden", want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Error("golden fixture decodes to a different state")
	}
}

// TestGoldenRouterTable pins the ORMRTAB v2 bytes the same way.
func TestGoldenRouterTable(t *testing.T) {
	st := goldenRouterState()
	got, err := EncodeRouterTable(st)
	if err != nil {
		t.Fatal(err)
	}
	want := checkGolden(t, filepath.Join("testdata", "golden_v2.ormrtab"), got)
	back, err := DecodeRouterTable("golden", want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Errorf("golden fixture decodes to %+v, want %+v", back, st)
	}
}
