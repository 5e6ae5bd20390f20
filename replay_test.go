package ormprof

// Record/replay contract test: "collect once, profile many" only works if a
// profile built from a replayed trace is byte-identical to one built from
// the live probe stream — for every profiler and every worker count. The
// trace format carries the workload name and site table precisely so this
// holds at the serialized-profile level, not just structurally.

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"ormprof/internal/cliutil"
	"ormprof/internal/depend"
	"ormprof/internal/leap"
	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/phase"
	"ormprof/internal/profiler"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

// recordWorkload runs a workload once, capturing both the in-memory buffer
// (live path) and the encoded trace bytes (replay path) from the same run.
func recordWorkload(t testing.TB, name string) (*trace.Buffer, map[trace.SiteID]string, []byte) {
	t.Helper()
	prog, err := workloads.New(name, workloads.Config{Scale: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName(name))
	m := memsim.Run(prog, trace.Tee(buf, tw))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf, m.StaticSites(), enc.Bytes()
}

// analyze runs one analysis over ev through the tools' entry point and
// fails the test on any fault, salvaged or not.
func analyze[P any, A cliutil.Analysis[P]](t testing.TB, ev *cliutil.Events, workers int, build func(workers int) A) P {
	t.Helper()
	var deg cliutil.Degraded
	prof, _, err := cliutil.Analyze(ev, &deg, workers, build)
	if err == nil {
		err = deg.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestReplayProfilesByteIdentical(t *testing.T) {
	for _, name := range []string{"linkedlist", "181.mcf"} {
		t.Run(name, func(t *testing.T) {
			buf, sites, encoded := recordWorkload(t, name)
			// Replay path: the recorded trace as a tool's -replay flag
			// opens it, labelled only by the trace's own metadata.
			ev, err := replayEvents(t, encoded, false)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range determinismWorkers {
				// Live path: profile the buffered probe stream.
				wpLive := whomp.NewParallel(sites, workers)
				buf.Replay(wpLive)
				var liveW bytes.Buffer
				if _, err := wpLive.Profile(name).WriteTo(&liveW); err != nil {
					t.Fatal(err)
				}

				var replayW bytes.Buffer
				if _, err := analyze(t, ev, workers, func(w int) *whomp.Profiler { return whomp.NewParallel(ev.Sites, w) }).WriteTo(&replayW); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(liveW.Bytes(), replayW.Bytes()) {
					t.Errorf("workers=%d: replayed WHOMP profile differs from live (%d vs %d bytes)",
						workers, replayW.Len(), liveW.Len())
				}

				lpLive := leap.NewParallel(sites, 0, workers)
				buf.Replay(lpLive)
				var liveL bytes.Buffer
				if _, err := lpLive.Profile(name).WriteTo(&liveL); err != nil {
					t.Fatal(err)
				}
				var replayL bytes.Buffer
				if _, err := analyze(t, ev, workers, func(w int) *leap.Profiler { return leap.NewParallel(ev.Sites, 0, w) }).WriteTo(&replayL); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(liveL.Bytes(), replayL.Bytes()) {
					t.Errorf("workers=%d: replayed LEAP profile differs from live (%d vs %d bytes)",
						workers, replayL.Len(), liveL.Len())
				}
			}
		})
	}
}

func TestStreamingConsumersMatchSlicePath(t *testing.T) {
	// Every analysis is a trace.Sink; streamed from a replayed trace
	// through Events.Pass it must agree exactly with the live buffer.
	buf, sites, encoded := recordWorkload(t, "181.mcf")
	ev, err := replayEvents(t, encoded, false)
	if err != nil {
		t.Fatal(err)
	}
	pass := func(sink trace.Sink) {
		t.Helper()
		if _, err := ev.Pass(sink); err != nil {
			t.Fatal(err)
		}
	}

	recsLive, _ := profiler.TranslateTrace(buf.Events, sites)
	var deg cliutil.Degraded
	recsReplay, _, _, err := ev.Translate(&deg)
	if err != nil || deg.Err() != nil {
		t.Fatal(err, deg.Err())
	}
	if len(recsLive) != len(recsReplay) {
		t.Fatalf("translate: %d live records, %d replayed", len(recsLive), len(recsReplay))
	}
	for i := range recsLive {
		if recsLive[i] != recsReplay[i] {
			t.Fatalf("record %d: live %+v, replay %+v", i, recsLive[i], recsReplay[i])
		}
	}

	strLive, strReplay := stride.NewIdeal(), stride.NewIdeal()
	buf.Replay(strLive)
	pass(strReplay)
	if !reflect.DeepEqual(strLive.StronglyStrided(), strReplay.StronglyStrided()) {
		t.Error("stride ideal differs between live and replayed streams")
	}

	depLive, depReplay := depend.NewIdeal(), depend.NewIdeal()
	buf.Replay(depLive)
	pass(depReplay)
	if !reflect.DeepEqual(depLive.Result(), depReplay.Result()) {
		t.Error("dependence ideal differs between live and replayed streams")
	}

	conLive, conReplay := depend.NewConnors(0), depend.NewConnors(0)
	buf.Replay(conLive)
	pass(conReplay)
	if !reflect.DeepEqual(conLive.Result(), conReplay.Result()) {
		t.Error("Connors result differs between live and replayed streams")
	}

	cognizant := func(feed func(trace.Sink)) *phase.CognizantLEAP {
		cog := phase.NewCognizantLEAP(phase.Config{}, 0)
		cdc := profiler.NewCDC(omc.New(sites), cog)
		feed(cdc)
		cdc.Finish()
		return cog
	}
	cogLive, cogReplay := cognizant(buf.Replay), cognizant(pass)
	accLive, _ := phase.Quality(cogLive.Profiles("x"))
	accReplay, _ := phase.Quality(cogReplay.Profiles("x"))
	if accLive != accReplay || cogLive.Detector().NumPhases() != cogReplay.Detector().NumPhases() {
		t.Error("phase-cognizant profile differs between live and replayed streams")
	}
}

func TestReplayRoundTripLossless(t *testing.T) {
	// The encoded trace must decode to exactly the probe stream the live
	// run produced: same events, same order, same payloads.
	buf, _, encoded := recordWorkload(t, "197.parser")
	r, err := tracefmt.NewReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= buf.Len() {
			t.Fatalf("trace decoded more than the %d live events", buf.Len())
		}
		if e != buf.Events[i] {
			t.Fatalf("event %d: replayed %+v, live %+v", i, e, buf.Events[i])
		}
		i++
	}
	if i != buf.Len() {
		t.Fatalf("trace decoded %d events, live run produced %d", i, buf.Len())
	}
}
