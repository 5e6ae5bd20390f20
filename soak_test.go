package ormprof

// Fault-injection soak: every workload's recorded trace is replayed through
// the pipeline the tools run, under a randomized (but seeded, hence
// reproducible) schedule of injected faults — corrupt bytes, truncation,
// field flips, producer panics, worker panics, stalls against deadlines.
// Damaged bytes go where a tool's -replay -lenient flags send them:
// cliutil.TraceFlags.Load, then cliutil.Analyze (one Events.Pass into a
// NewParallel profiler, Profile, Err). Damaged event sources go through
// trace.DrainContext, the drain under every Events.Pass. The contract under
// test is the robustness tentpole: the pipeline never hangs, never lets a
// panic escape, never leaks goroutines, and always yields either a
// (possibly partial) profile or a typed error. With a single corrupted
// frame, exactly that frame's events are lost — asserted via the reader
// stats the pass reports.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ormprof/internal/cliutil"
	"ormprof/internal/faultinject"
	"ormprof/internal/leap"
	"ormprof/internal/profiler"
	"ormprof/internal/stride"
	"ormprof/internal/testutil"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

// replayEvents writes encoded trace bytes to a file and opens it the way a
// tool's -replay flag does, with -lenient as given. A header too damaged
// to open is a legitimate outcome for header-offset faults; those cases
// return (nil, err).
func replayEvents(t testing.TB, data []byte, lenient bool) (*cliutil.Events, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "soak.ormtrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tf := &cliutil.TraceFlags{Replay: path, Lenient: lenient, Deadline: 2 * time.Minute}
	return tf.Load("", workloads.Config{})
}

// drainAnalysis is cliutil.Analyze for an event source instead of a trace
// file: the one drain, then Profile, then Err, with the first fault
// returned.
func drainAnalysis[P any](ctx context.Context, workload string, src trace.Source, a cliutil.Analysis[P]) (P, error) {
	_, err := trace.DrainContext(ctx, src, a)
	prof := a.Profile(workload)
	if err == nil {
		err = a.Err()
	}
	return prof, err
}

// runSalvage replays a (possibly damaged) encoded trace through whomp and
// leap as the tools run them with -lenient, and enforces the soak contract
// on the outcome.
func runSalvage(t *testing.T, data []byte, totalEvents int64) {
	t.Helper()
	for _, analysis := range []string{"whomp", "leap"} {
		ev, err := replayEvents(t, data, true)
		if err != nil {
			if !errors.Is(err, tracefmt.ErrBadTrace) {
				t.Fatalf("header error not typed: %v", err)
			}
			return // unreadable header is a clean typed failure
		}
		var deg cliutil.Degraded
		var records uint64
		switch analysis {
		case "whomp":
			var p *whomp.Profile
			p, _, err = cliutil.Analyze(ev, &deg, 4, func(w int) *whomp.Profiler { return whomp.NewParallel(ev.Sites, w) })
			if p != nil {
				records = p.Records
			}
		case "leap":
			var p *leap.Profile
			p, _, err = cliutil.Analyze(ev, &deg, 4, func(w int) *leap.Profiler { return leap.NewParallel(ev.Sites, 0, w) })
			if p != nil {
				records = p.Records
			}
		}
		if err != nil && !errors.Is(err, tracefmt.ErrBadTrace) {
			t.Fatalf("%s: hard error not typed: %v", analysis, err)
		}
		if err == nil && records == 0 && deg.Err() == nil {
			t.Fatalf("%s: neither profile nor error", analysis)
		}
		if int64(records) > totalEvents {
			t.Fatalf("%s salvaged %d records from %d events", analysis, records, totalEvents)
		}
		st := ev.Stats()
		if st.Events < 0 || st.Events > totalEvents {
			t.Fatalf("reader stats inconsistent: delivered %d of %d", st.Events, totalEvents)
		}
	}
}

func soakWorkloads(t *testing.T) []string {
	if testing.Short() {
		return []string{"linkedlist", "181.mcf"}
	}
	return append(workloads.Names(), "linkedlist")
}

func soakOffsets(rng *rand.Rand, size int64, n int) []int64 {
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = rng.Int63n(size)
	}
	return offs
}

// TestSoakCorruptByte: single flipped bytes at random offsets, including
// inside the header.
func TestSoakCorruptByte(t *testing.T) {
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(1))
	nOffsets := 6
	if testing.Short() {
		nOffsets = 2
	}
	for _, name := range soakWorkloads(t) {
		buf, _, encoded := recordWorkload(t, name)
		total := int64(buf.Len())
		for _, off := range soakOffsets(rng, int64(len(encoded)), nOffsets) {
			damaged, err := io.ReadAll(faultinject.CorruptByte(bytes.NewReader(encoded), off, byte(rng.Intn(256))))
			if err != nil {
				t.Fatal(err)
			}
			runSalvage(t, damaged, total)
		}
	}
}

// TestSoakTruncation: traces cut off at random points, including inside
// the header and mid-frame.
func TestSoakTruncation(t *testing.T) {
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(2))
	nOffsets := 6
	if testing.Short() {
		nOffsets = 2
	}
	for _, name := range soakWorkloads(t) {
		buf, _, encoded := recordWorkload(t, name)
		total := int64(buf.Len())
		for _, cut := range soakOffsets(rng, int64(len(encoded)), nOffsets) {
			damaged, err := io.ReadAll(faultinject.Truncate(bytes.NewReader(encoded), cut))
			if err != nil {
				t.Fatal(err)
			}
			runSalvage(t, damaged, total)
		}
	}
}

// TestSoakFieldFlip: decoded events mutated in flight — wrong kinds,
// garbage addresses, zero sizes. The pipeline must absorb them (they are
// semantically wrong but structurally deliverable) without crashing.
func TestSoakFieldFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(3))
	mutations := []func(*trace.Event){
		func(e *trace.Event) { e.Kind = trace.EventKind(250) },
		func(e *trace.Event) { e.Addr = ^trace.Addr(0) },
		func(e *trace.Event) { e.Size = 0 },
		func(e *trace.Event) { e.Kind, e.Size = trace.EvAlloc, 0 },
		func(e *trace.Event) { e.Kind = trace.EvFree },
	}
	for _, name := range soakWorkloads(t) {
		buf, sites, _ := recordWorkload(t, name)
		for i, mutate := range mutations {
			n := rng.Int63n(int64(buf.Len()))
			src := faultinject.FlipField(buf.Source(), n, mutate)
			p, err := drainAnalysis(context.Background(), "soak", src, whomp.NewParallel(sites, 2))
			if err != nil && !cliutil.Salvaged(err) {
				t.Fatalf("mutation %d: error not typed: %v", i, err)
			}
			if p == nil && err == nil {
				t.Fatalf("mutation %d: neither profile nor error", i)
			}
		}
	}
}

// TestSoakProducerPanic: the source itself panics mid-stream; DrainContext
// must contain it and hand back the partial profile with a *PanicError.
func TestSoakProducerPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(4))
	for _, name := range soakWorkloads(t) {
		buf, sites, _ := recordWorkload(t, name)
		n := 1 + rng.Int63n(int64(buf.Len())-1)
		src := faultinject.PanicAfter(buf.Source(), n)
		p, err := drainAnalysis(context.Background(), "soak", src, leap.NewParallel(sites, 0, 4))
		var pe *trace.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *trace.PanicError", name, err)
		}
		if p == nil {
			t.Fatalf("%s: no partial profile", name)
		}
	}
}

// TestSoakWorkerPanic: a compression worker crashes on a random record;
// the sharded stage must contain it, finish the surviving shards, and
// report a *WorkerError — which Analyze turns into a salvaged run (exit 2)
// with the partial profile, as in the tools.
func TestSoakWorkerPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(5))
	for _, name := range soakWorkloads(t) {
		_, _, encoded := recordWorkload(t, name)
		ev, err := replayEvents(t, encoded, false)
		if err != nil {
			t.Fatal(err)
		}
		var clean cliutil.Degraded
		records, _, _, err := ev.Translate(&clean)
		if err != nil || clean.Err() != nil {
			t.Fatal(err, clean.Err())
		}
		if len(records) < 4 {
			continue
		}
		// Round-robin dealing guarantees worker 0 sees len/4 records, so a
		// crash index drawn from that range always fires.
		crashAt := uint64(rng.Int63n(int64(len(records) / 4)))
		var deg cliutil.Degraded
		routed, _, err := cliutil.Analyze(ev, &deg, 4, func(w int) *faultinject.CrashingLEAP {
			return faultinject.NewCrashingLEAP(ev.Sites, w, crashAt)
		})
		if err != nil {
			t.Fatalf("%s: worker panic treated as a hard error: %v", name, err)
		}
		var we *profiler.WorkerError
		if !errors.As(deg.Err(), &we) {
			t.Fatalf("%s: Err = %v, want *WorkerError", name, deg.Err())
		} else if we.Worker != 0 {
			t.Fatalf("%s: crashed worker = %d, want 0", name, we.Worker)
		}
		if routed != uint64(len(records)) || cliutil.ExitCode(deg.Err()) != 2 {
			t.Fatalf("%s: routed %d of %d records, exit %d", name, routed, len(records), cliutil.ExitCode(deg.Err()))
		}
	}
}

// TestSoakStallDeadline: a producer stalls mid-stream against a deadline;
// the drain must notice the overrun at the next event and return
// DeadlineExceeded with the partial profile, promptly.
func TestSoakStallDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	rng := rand.New(rand.NewSource(6))
	for _, name := range soakWorkloads(t) {
		buf, sites, _ := recordWorkload(t, name)
		n := rng.Int63n(int64(buf.Len()))
		src := faultinject.Stall(buf.Source(), n, 300*time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		p, err := drainAnalysis(ctx, "soak", src, whomp.NewParallel(sites, 2))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want DeadlineExceeded", name, err)
		}
		if p == nil {
			t.Fatalf("%s: no partial profile", name)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: salvage took %v after a 300ms stall", name, elapsed)
		}
	}
}

// TestSoakSingleFrameLossIsExact pins the headline guarantee at the pipeline
// level: corrupt exactly one frame of a recorded trace and the salvaged
// profile is built from exactly every other frame's events.
func TestSoakSingleFrameLossIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	testutil.LeakCheck(t)
	buf, sites, _ := recordWorkload(t, "linkedlist")
	// Re-encode with a small fixed batch so the trace has many frames.
	const batch = 64
	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName("exact"), tracefmt.WithBatch(batch))
	tw.SetSites(sites)
	for _, e := range buf.Events {
		tw.Emit(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	encoded := enc.Bytes()
	total := int64(buf.Len())

	// Find the third frame by scanning for the sync marker and corrupt a
	// payload byte well inside it.
	off := 0
	for i := 0; i < 3; i++ {
		idx := bytes.Index(encoded[off+1:], []byte(tracefmt.FrameMagic))
		if idx < 0 {
			t.Fatal("trace has too few frames")
		}
		off += 1 + idx
	}
	damaged := bytes.Clone(encoded)
	damaged[off+16] ^= 0xa5

	ev, err := replayEvents(t, damaged, true)
	if err != nil {
		t.Fatal(err)
	}
	ideal := stride.NewIdeal()
	n, serr := ev.Pass(ideal)
	var ce *tracefmt.CorruptionError
	if !errors.As(serr, &ce) {
		t.Fatalf("err = %v, want *CorruptionError", serr)
	}
	st := ev.Stats()
	if st.SkippedFrames != 1 || st.Corruptions != 1 {
		t.Fatalf("SkippedFrames/Corruptions = %d/%d, want 1/1", st.SkippedFrames, st.Corruptions)
	}
	if st.SkippedEvents != batch {
		t.Fatalf("SkippedEvents = %d, want exactly one frame (%d)", st.SkippedEvents, batch)
	}
	if st.Events != total-batch || int64(n) != st.Events {
		t.Fatalf("delivered %d events (pass counted %d), want %d (all but one frame)", st.Events, n, total-batch)
	}
	if len(ideal.Execs()) == 0 {
		t.Fatal("salvaged pass fed the stride profiler nothing")
	}
}
