package serve

// Tests for rebuilding a session pipeline from checkpoint bytes: states
// that decode but lack a component snapshot, and a fuzzer over the whole
// ORMCKPT → pipelineFromState path that resume and merge both run.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"ormprof/internal/checkpoint"
	"ormprof/internal/codec"
	"ormprof/internal/govern"
)

// rungState returns a real session state at the target rung, n events
// before the step down and n after.
func rungState(t testing.TB, target govern.Rung, n int) *checkpoint.State {
	_, sites, events := makeFrames(t, "linkedlist", 256)
	p := newPipeline("linkedlist", sites, 0, govern.NewBudget(0), sessionSeed("ck"), true, false)
	p.applyFrame(events[:n])
	for p.lad.Rung().Rank() < target.Rank() {
		p.lad.ForceStep()
	}
	p.applyFrame(events[n : 2*n])
	st, err := p.state("ck")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestIncompleteStateRejected: a CRC-valid checkpoint with a component
// snapshot missing for its rung is an error from pipelineFromState — which
// resume turns into a fresh session and merge into a skipped state —
// never a nil dereference.
func TestIncompleteStateRejected(t *testing.T) {
	type drop = func(*checkpoint.State)
	full := map[string]drop{
		"WhompOMC": func(st *checkpoint.State) { st.WhompOMC = nil },
		"Whomp":    func(st *checkpoint.State) { st.Whomp = nil },
		"LeapOMC":  func(st *checkpoint.State) { st.LeapOMC = nil },
		"Leap":     func(st *checkpoint.State) { st.Leap = nil },
		"Stride":   func(st *checkpoint.State) { st.Stride = nil },
	}
	cases := map[govern.Rung]map[string]drop{
		govern.RungFull:    full,
		govern.RungSampled: full,
		govern.RungSketchStride: {
			"Stride": func(st *checkpoint.State) { st.Ladder.SketchStride.Stride = nil },
			"Digram": func(st *checkpoint.State) { st.Ladder.SketchStride.Digram = nil },
			"Pairs":  func(st *checkpoint.State) { st.Ladder.SketchStride.Pairs = nil },
		},
		govern.RungStrideOnly: {
			"Stride": func(st *checkpoint.State) { st.Ladder.Stride = nil },
		},
	}
	for rung, drops := range cases {
		for name, drop := range drops {
			t.Run(rung.String()+"/"+name, func(t *testing.T) {
				st := rungState(t, rung, 512)
				drop(st)
				if _, err := pipelineFromState(st, 0, govern.NewBudget(0), true); err == nil {
					t.Fatal("pipelineFromState accepted a state without its component snapshot")
				}
			})
		}
	}

	// The same through the merge plane, with the bare state from the
	// original report: no ladder and no components at all.
	dir := t.TempDir()
	if err := checkpoint.Save(checkpoint.FinalPathFor(dir, "s1"), &checkpoint.State{SessionID: "s1"}); err != nil {
		t.Fatal(err)
	}
	stats, err := ClusterReport([]string{dir}, t.TempDir(), 0, nil)
	if err != nil {
		t.Fatalf("merge over an incomplete final state: %v", err)
	}
	if stats.Skipped != 1 || stats.Sessions != 0 {
		t.Errorf("stats = %+v, want 1 skipped, 0 sessions", stats)
	}
}

// TestResumeKeepsCheckpointBytes: restoring the golden checkpoint and
// snapshotting it again gives the fixture's bytes. The pipeline holds one
// OMC and state() stores its snapshot in both WhompOMC and LeapOMC, so
// this pins that the aliased state still encodes as two equal OMCs.
//
// encoding/gob numbers types per process, in first-use order, so a
// process that wrote a router table first encodes other checkpoint bytes.
// Unless this test is the only one selected, it therefore re-runs itself
// alone in a fresh test process.
func TestResumeKeepsCheckpointBytes(t *testing.T) {
	const only = "^TestResumeKeepsCheckpointBytes$"
	if flag.Lookup("test.run").Value.String() != only {
		out, err := exec.Command(os.Args[0], "-test.run="+only, "-test.count=1").CombinedOutput()
		if err != nil {
			t.Fatalf("fresh test process: %v\n%s", err, out)
		}
		return
	}
	golden, err := os.ReadFile(filepath.Join("..", "checkpoint", "testdata", "golden_v1.ormckpt"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Decode("golden", golden)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipelineFromState(st, 0, govern.NewBudget(0), true)
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.state(st.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if back.WhompOMC != back.LeapOMC {
		t.Error("state() took two OMC snapshots, want one stored in both fields")
	}
	got, err := checkpoint.Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("restore → state → Encode drifted from the golden checkpoint: %d bytes vs %d", len(got), len(golden))
	}
}

// FuzzCheckpointRestore feeds ORMCKPT bytes to checkpoint.Decode and then
// pipelineFromState, the path `ormpd -resume` and `ormpd -merge` run on
// durable state. With reseal set the input is a payload sealed under a
// valid header first, so mutations reach the gob decoder and the
// snapshot restores instead of dying at the CRC. Either step may fail;
// neither may panic.
func FuzzCheckpointRestore(f *testing.F) {
	for _, rung := range []govern.Rung{govern.RungFull, govern.RungSampled, govern.RungSketchStride, govern.RungCounters} {
		// Small states keep each execution, and the fuzzer's minimization
		// of an interesting input, fast.
		data, err := checkpoint.Encode(rungState(f, rung, 64))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
		f.Add(data[len(checkpoint.Magic)+codec.SealOverhead:], true)
	}
	if golden, err := os.ReadFile(filepath.Join("..", "checkpoint", "testdata", "golden_v1.ormckpt")); err == nil {
		f.Add(golden, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			sealed, err := codec.Seal(checkpoint.Magic, checkpoint.Version, data, checkpoint.MaxPayload)
			if err != nil {
				return
			}
			data = sealed
		}
		st, err := checkpoint.Decode("fuzz", data)
		if err != nil {
			if !checkpoint.IsCorrupt(err) {
				t.Fatalf("Decode error %v is not a *CorruptError", err)
			}
			return
		}
		if _, err := pipelineFromState(st, 0, govern.NewBudget(0), true); err != nil {
			return
		}
	})
}
