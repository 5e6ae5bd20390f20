package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ormprof/internal/faultinject"
	"ormprof/internal/leap"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/workloads"
)

func TestWorkersFlagDefault(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	w := WorkersFlag(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *w < 1 {
		t.Errorf("default -workers value %d is below 1", *w)
	}
}

func TestRecordReplayMutuallyExclusive(t *testing.T) {
	tf := &TraceFlags{Record: "a", Replay: "b"}
	if _, err := tf.Load("linkedlist", workloads.Config{Scale: 1, Seed: 42}); err == nil {
		t.Error("Load accepted -record together with -replay")
	}
}

func TestLoadRequiresWorkloadOrReplay(t *testing.T) {
	tf := &TraceFlags{}
	if _, err := tf.Load("", workloads.Config{}); err == nil {
		t.Error("Load accepted neither workload nor -replay")
	}
}

func TestLiveRecordReplayAgree(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ormtrace")
	cfg := workloads.Config{Scale: 1, Seed: 42}

	// Live run teeing to a trace file.
	live, err := (&TraceFlags{Record: path}).Load("linkedlist", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live.Replayed() {
		t.Error("live run claims to be replayed")
	}
	var liveBuf trace.Buffer
	n, err := live.Pass(&liveBuf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("live pass delivered no events")
	}

	// Replay of the recorded file: same name, same sites, same events.
	rep, err := (&TraceFlags{Replay: path}).Load("ignored-name", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replayed() {
		t.Error("replay run claims to be live")
	}
	if rep.Name != live.Name {
		t.Errorf("replay Name = %q, live %q", rep.Name, live.Name)
	}
	if len(rep.Sites) != len(live.Sites) {
		t.Errorf("replay Sites = %v, live %v", rep.Sites, live.Sites)
	}
	for id, name := range live.Sites {
		if rep.Sites[id] != name {
			t.Errorf("site %d = %q, want %q", id, rep.Sites[id], name)
		}
	}
	var repBuf trace.Buffer
	m, err := rep.Pass(&repBuf)
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("replay pass delivered %d events, live %d", m, n)
	}
	for i := range liveBuf.Events {
		if repBuf.Events[i] != liveBuf.Events[i] {
			t.Fatalf("event %d: replay %+v, live %+v", i, repBuf.Events[i], liveBuf.Events[i])
		}
	}

	// Passes are repeatable on both paths (multi-pass profiling).
	var again trace.Buffer
	if m2, err := rep.Pass(&again); err != nil || m2 != n {
		t.Fatalf("second replay pass: %d events, err %v", m2, err)
	}

	// Translations agree record-for-record.
	var deg Degraded
	liveRecs, _, _, err := live.Translate(&deg)
	if err != nil {
		t.Fatal(err)
	}
	repRecs, _, _, err := rep.Translate(&deg)
	if err != nil || deg.Err() != nil {
		t.Fatal(err, deg.Err())
	}
	if len(liveRecs) != len(repRecs) {
		t.Fatalf("translate: live %d records, replay %d", len(liveRecs), len(repRecs))
	}
	for i := range liveRecs {
		if liveRecs[i] != repRecs[i] {
			t.Fatalf("record %d: live %+v, replay %+v", i, liveRecs[i], repRecs[i])
		}
	}
}

func TestReplayRejectsGarbageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ormtrace")
	if err := os.WriteFile(path, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (&TraceFlags{Replay: path}).Load("", workloads.Config{}); err == nil {
		t.Error("Load accepted a garbage trace file")
	}
}

func TestReplayMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.ormtrace")
	if _, err := (&TraceFlags{Replay: path}).Load("", workloads.Config{}); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load(missing file) = %v, want ErrNotExist", err)
	}
}

func TestReplayZeroByteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ormtrace")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// An empty file fails header validation on both strict and lenient
	// paths — lenient mode never excuses a missing header.
	for _, lenient := range []bool{false, true} {
		tf := &TraceFlags{Replay: path, Lenient: lenient}
		if _, err := tf.Load("", workloads.Config{}); !errors.Is(err, tracefmt.ErrBadTrace) {
			t.Errorf("lenient=%v: Load(empty file) = %v, want ErrBadTrace", lenient, err)
		}
	}
}

func TestReplayTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ormtrace")
	cfg := workloads.Config{Scale: 1, Seed: 42}
	// Encode with a small batch so the trace spans many frames — a
	// truncated tail then costs only the last frame, not everything.
	live, err := (&TraceFlags{}).Load("linkedlist", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events trace.Buffer
	if _, err := live.Pass(&events); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(full)
	if err != nil {
		t.Fatal(err)
	}
	tw := tracefmt.NewWriter(f, tracefmt.WithName("linkedlist"), tracefmt.WithBatch(64))
	tw.SetSites(live.Sites)
	for _, e := range events.Events {
		tw.Emit(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Cut inside the header: unreadable even leniently.
	header := filepath.Join(dir, "header.ormtrace")
	if err := os.WriteFile(header, data[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (&TraceFlags{Replay: header, Lenient: true}).Load("", cfg); err == nil {
		t.Error("Load accepted a header-truncated trace")
	}

	// Cut mid-body: the header opens, the strict pass fails, and a lenient
	// pass salvages every complete frame with a typed damage report.
	body := filepath.Join(dir, "body.ormtrace")
	if err := os.WriteFile(body, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	strictEv, err := (&TraceFlags{Replay: body}).Load("", cfg)
	if err != nil {
		t.Fatalf("strict Load(truncated body) failed at open: %v", err)
	}
	if _, err := strictEv.Pass(&trace.Buffer{}); err == nil {
		t.Error("strict pass accepted a truncated trace body")
	}

	ev, err := (&TraceFlags{Replay: body, Lenient: true}).Load("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	n, err := ev.Pass(&buf)
	var ce *tracefmt.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("lenient pass error = %v, want *CorruptionError", err)
	}
	if !Salvaged(err) || ExitCode(err) != 2 {
		t.Errorf("truncation error not classified as salvaged/exit 2: %v", err)
	}
	if n == 0 || buf.Len() != n {
		t.Errorf("lenient pass delivered %d events, buffered %d", n, buf.Len())
	}
	if st := ev.Stats(); !st.Damaged() || st.Events != int64(n) {
		t.Errorf("Stats() = %+v, want damaged with Events == %d", st, n)
	}
}

func TestExitCodeConvention(t *testing.T) {
	if got := ExitCode(nil); got != 0 {
		t.Errorf("ExitCode(nil) = %d, want 0", got)
	}
	if got := ExitCode(os.ErrNotExist); got != 1 {
		t.Errorf("ExitCode(hard error) = %d, want 1", got)
	}
	salvaged := []error{
		&tracefmt.CorruptionError{},
		&trace.PanicError{Value: "boom"},
		&profiler.WorkerError{Worker: 3, Value: "boom"},
		context.DeadlineExceeded,
		context.Canceled,
		fmt.Errorf("wrapped: %w", &tracefmt.CorruptionError{}),
	}
	for _, err := range salvaged {
		if !Salvaged(err) || ExitCode(err) != 2 {
			t.Errorf("%v: Salvaged=%v ExitCode=%d, want true/2", err, Salvaged(err), ExitCode(err))
		}
	}
}

func TestDegradedAccumulator(t *testing.T) {
	var deg Degraded
	if err := deg.Check(nil); err != nil || deg.Err() != nil {
		t.Fatal("clean Check must stay clean")
	}
	first := &tracefmt.CorruptionError{}
	if err := deg.Check(first); err != nil {
		t.Fatalf("salvaged error returned as hard: %v", err)
	}
	if err := deg.Check(context.DeadlineExceeded); err != nil {
		t.Fatalf("second salvaged error returned as hard: %v", err)
	}
	if deg.Err() != error(first) {
		t.Errorf("Err() = %v, want the first salvaged error", deg.Err())
	}
	hard := os.ErrNotExist
	if err := deg.Check(hard); err != hard {
		t.Errorf("hard error filtered: %v", err)
	}
}

// TestDeadlineSharedAcrossPasses: -deadline is one budget for the whole
// invocation, not a fresh allowance per pass. A budget generous enough
// for the first pass but exhausted afterwards must cut the second pass
// short with a salvaged (deadline) error, while without a deadline both
// passes complete.
func TestDeadlineSharedAcrossPasses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.ormtrace")
	cfg := workloads.Config{Scale: 1, Seed: 42}
	if _, err := (&TraceFlags{Record: path}).Load("linkedlist", cfg); err != nil {
		t.Fatal(err)
	}

	ev, err := (&TraceFlags{Replay: path, Deadline: 5 * time.Minute}).Load("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Pass(trace.Discard); err != nil {
		t.Fatalf("first pass within budget: %v", err)
	}
	// Exhaust the shared budget; the next pass must hit the same clock.
	ev.budget = time.Now().Add(-time.Second)
	if _, err := ev.Pass(trace.Discard); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second pass after budget exhaustion: got %v, want DeadlineExceeded", err)
	}
	if !Salvaged(err) && err != nil {
		t.Fatalf("deadline overrun not salvaged: %v", err)
	}

	// Sanity: with no deadline, repeated passes never expire.
	ev2, err := (&TraceFlags{Replay: path}).Load("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ev2.Pass(trace.Discard); err != nil {
			t.Fatalf("pass %d without deadline: %v", i, err)
		}
	}
}

// TestLivePassContainsSinkPanic: a live pass without -deadline runs on the
// same contained drain as a replay pass, so a panicking sink comes back as
// a *trace.PanicError with the events before it counted.
func TestLivePassContainsSinkPanic(t *testing.T) {
	ev, err := (&TraceFlags{}).Load("linkedlist", workloads.Config{Scale: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	n, err := ev.Pass(trace.SinkFunc(func(trace.Event) {
		if seen == 100 {
			panic("sink exploded")
		}
		seen++
	}))
	var pe *trace.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("live pass error = %v, want *trace.PanicError", err)
	}
	if n != 100 || ExitCode(err) != 2 {
		t.Errorf("live pass = (%d, exit %d), want (100, exit 2)", n, ExitCode(err))
	}
}

// TestAnalyzeReportsWorkerPanic: a worker panic in a parallel pipeline is
// recorded by its fan-out stage, not raised by the drain. Analyze must
// read the pipeline's Err after Profile, so the tool keeps the partial
// profile and exits 2 instead of 0.
func TestAnalyzeReportsWorkerPanic(t *testing.T) {
	ev, err := (&TraceFlags{}).Load("linkedlist", workloads.Config{Scale: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var clean Degraded
	if _, _, err := Analyze(ev, &clean, 4, func(w int) *leap.Profiler { return leap.NewParallel(ev.Sites, 0, w) }); err != nil || clean.Err() != nil {
		t.Fatalf("clean parallel run: err %v, degraded %v", err, clean.Err())
	}

	var deg Degraded
	routed, _, err := Analyze(ev, &deg, 4, func(w int) *faultinject.CrashingLEAP { return faultinject.NewCrashingLEAP(ev.Sites, w, 10) })
	if err != nil {
		t.Fatalf("worker panic treated as a hard error: %v", err)
	}
	var we *profiler.WorkerError
	if !errors.As(deg.Err(), &we) || we.Worker != 0 {
		t.Fatalf("Degraded.Err() = %v, want *profiler.WorkerError from worker 0", deg.Err())
	}
	if routed == 0 || ExitCode(deg.Err()) != 2 {
		t.Errorf("routed %d records, exit %d; want a partial profile and exit 2", routed, ExitCode(deg.Err()))
	}
}
