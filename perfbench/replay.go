package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"ormprof/internal/atomicfile"
	"ormprof/internal/checkpoint"
	"ormprof/internal/govern"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/serve"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
)

// The replays below re-run a workload's path stage by stage through the
// modules' exported functions, with a span around each call. They mirror
// the assembly in internal/serve/pipeline.go, session.go and merge.go at
// the time of writing: two OMCs per session (one feeding WHOMP, one
// feeding LEAP), the lossless stride profiler, an account-only
// degradation ladder, a checkpoint every checkpointEvery frames, and the
// merge plane's restore-then-merge. A change to that assembly that the
// replay does not follow shows up as a change in serve.gap_ns_per_event.

// checkpointEvery is serve.Config's default CheckpointEvery.
const checkpointEvery = 32

// Span names shared by the replays and the metric extraction.
const (
	spSession    = "replay.session"
	spCheckpoint = "checkpoint"
	// A supplement session replays a short trace through the same stages
	// for the layers a workload's own path does not cross.
	spSuppSession    = "supplement.session"
	spSuppCheckpoint = "supplement.checkpoint"
	spFinal          = "final.state"
	spMerge          = "replay.merge"
	spOffline        = "offline.trace"
)

// footprintMode stands in for the daemon's pipelineMode behind the
// replay's ladder: the stages run outside it (each under its own span),
// so the ladder span times only its own per-event accounting over the
// same components' footprints.
type footprintMode struct {
	wOMC, lOMC *omc.OMC
	wSCC       *whomp.SCC
	lSCC       *leap.SCC
	ideal      *stride.Ideal
}

func (m *footprintMode) Emit(trace.Event) {}

func (m *footprintMode) Footprint() int64 {
	return m.wOMC.Footprint() + m.wSCC.Footprint() + m.lOMC.Footprint() + m.lSCC.Footprint() + m.ideal.Footprint()
}

// sessionSeed matches the daemon's per-session ladder seed.
func sessionSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// sessionReplay is one replayed daemon session's outcome.
type sessionReplay struct {
	id        string
	in        *input
	supp      bool
	root      int // the session span
	symbols   int
	ckptBytes []int
	whomp     []byte
	leap      []byte
	stride    []byte
}

// replaySession pushes in's frames through one session's stage sequence.
// Checkpoints go to ckDir; with finalDir set the session's final state is
// saved there before the session ends, as the cluster's shards do before
// their Bye.
func replaySession(rec *tracer, id, label string, in *input, ckDir, outDir, finalDir string, supp bool) (*sessionReplay, error) {
	r := &sessionReplay{id: id, in: in, supp: supp}
	rootName, ckName := spSession, spCheckpoint
	if supp {
		rootName, ckName = spSuppSession, spSuppCheckpoint
	}
	r.root = rec.begin(id, rootName, 0)
	m := &footprintMode{
		wOMC: omc.New(in.sites), wSCC: whomp.NewSCC(),
		lOMC: omc.New(in.sites), lSCC: leap.NewSCC(0),
		ideal: stride.NewIdeal(),
	}
	var wCol, lCol profiler.Collector
	wCDC, lCDC := profiler.NewCDC(m.wOMC, &wCol), profiler.NewCDC(m.lOMC, &lCol)
	lad := govern.NewLadder(govern.Config{Seed: sessionSeed(id), Full: func() govern.Mode { return m }})
	st := func(frames, events uint64) *checkpoint.State {
		return &checkpoint.State{SessionID: id, Workload: label, Sites: checkpoint.SortSites(in.sites),
			FramesApplied: frames, EventsApplied: events}
	}

	var evbuf []trace.Event
	var frames, events uint64
	for i := range in.frames {
		s := rec.begin(id, "tracefmt.DecodeFrameInto", r.root)
		evs, err := tracefmt.DecodeFrameInto(evbuf[:0], in.frames[i])
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay %s frame %d: %w", id, i, err)
		}
		evbuf = evs

		s = rec.begin(id, "omc.translate", r.root)
		wCol.Records, lCol.Records = wCol.Records[:0], lCol.Records[:0]
		for _, e := range evs {
			wCDC.Emit(e)
		}
		for _, e := range evs {
			lCDC.Emit(e)
		}
		rec.end(s)

		s = rec.begin(id, "whomp.SCC.Consume", r.root)
		for _, rc := range wCol.Records {
			m.wSCC.Consume(rc)
		}
		rec.end(s)

		s = rec.begin(id, "leap.SCC.Consume", r.root)
		for _, rc := range lCol.Records {
			m.lSCC.Consume(rc)
		}
		rec.end(s)

		s = rec.begin(id, "stride.Ideal.Emit", r.root)
		for _, e := range evs {
			m.ideal.Emit(e)
		}
		rec.end(s)

		s = rec.begin(id, "govern.Ladder.Emit", r.root)
		for _, e := range evs {
			lad.Emit(e)
		}
		rec.end(s)

		frames++
		events += uint64(len(evs))
		if frames%checkpointEvery == 0 {
			ck := rec.begin(id, ckName, r.root)
			n, err := saveState(rec, id, ck, st(frames, events), lad, m, checkpoint.PathFor(ckDir, id))
			rec.end(ck)
			if err != nil {
				return nil, err
			}
			r.ckptBytes = append(r.ckptBytes, n)
		}
	}

	// Done: the daemon writes the session's three profiles, then (in a
	// cluster) its final state, then says Bye.
	s := rec.begin(id, "profile.build", r.root)
	wp := &whomp.Profile{Workload: label, Records: m.wSCC.Records(), Grammars: m.wSCC.Grammars(), Objects: whomp.FromOMC(m.wOMC)}
	lp := m.lSCC.BuildProfile(label)
	rec.end(s)
	r.symbols = wp.Symbols()
	s = rec.begin(id, "stride.FromLEAP", r.root)
	est := stride.FromLEAP(lp)
	rec.end(s)
	var err error
	s = rec.begin(id, "profile.write", r.root)
	r.whomp, r.leap, r.stride, err = writeProfiles(filepath.Join(outDir, label), wp, lp, m.ideal, est)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	os.Remove(checkpoint.PathFor(ckDir, id))
	if finalDir != "" {
		fs := rec.begin(id, spFinal, r.root)
		_, err := saveState(rec, id, fs, st(frames, events), lad, m, checkpoint.FinalPathFor(finalDir, id))
		rec.end(fs)
		if err != nil {
			return nil, err
		}
	}
	rec.end(r.root)
	return r, nil
}

// saveState snapshots every component into st, encodes it, and commits
// it durably — pipeline.state followed by checkpoint.Save. It returns the
// encoded size.
func saveState(rec *tracer, id string, parent int, st *checkpoint.State, lad *govern.Ladder, m *footprintMode, path string) (int, error) {
	s := rec.begin(id, "govern.Ladder.Snapshot", parent)
	st.Ladder = lad.Snapshot()
	rec.end(s)
	var err error
	s = rec.begin(id, "omc.Snapshot", parent)
	if st.WhompOMC, err = m.wOMC.Snapshot(); err == nil {
		st.LeapOMC, err = m.lOMC.Snapshot()
	}
	rec.end(s)
	if err != nil {
		return 0, fmt.Errorf("replay %s: snapshot OMC: %w", id, err)
	}
	s = rec.begin(id, "whomp.SCC.Snapshot", parent)
	st.Whomp, err = m.wSCC.Snapshot()
	rec.end(s)
	if err != nil {
		return 0, fmt.Errorf("replay %s: snapshot WHOMP SCC: %w", id, err)
	}
	s = rec.begin(id, "leap.SCC.Snapshot", parent)
	st.Leap = m.lSCC.Snapshot()
	rec.end(s)
	s = rec.begin(id, "stride.Ideal.Snapshot", parent)
	st.Stride = m.ideal.Snapshot()
	rec.end(s)
	s = rec.begin(id, "checkpoint.Encode", parent)
	data, err := checkpoint.Encode(st)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	s = rec.begin(id, "atomicfile.Write", parent)
	err = atomicfile.Write(path, data)
	rec.end(s)
	return len(data), err
}

// writeProfiles writes base.{whomp,leap,stride} the way the daemon does
// (temporary file, then rename) and returns the bytes written.
func writeProfiles(base string, wp *whomp.Profile, lp *leap.Profile, ideal *stride.Ideal, est map[trace.InstrID]stride.Info) (wb, lb, sb []byte, err error) {
	var w, l, s bytes.Buffer
	if _, err = wp.WriteTo(&w); err != nil {
		return nil, nil, nil, err
	}
	if _, err = lp.WriteTo(&l); err != nil {
		return nil, nil, nil, err
	}
	if err = serveStride(&s, ideal, est); err != nil {
		return nil, nil, nil, err
	}
	for ext, b := range map[string][]byte{".whomp": w.Bytes(), ".leap": l.Bytes(), ".stride": s.Bytes()} {
		if err = writeRenamed(base+ext, b); err != nil {
			return nil, nil, nil, err
		}
	}
	return w.Bytes(), l.Bytes(), s.Bytes(), nil
}

// writeRenamed writes data to a temporary file beside path and renames it
// into place.
func writeRenamed(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// replayMerge mirrors serve.ClusterReport: load every final state, restore
// each session's components, then merge the LEAP profiles and stride
// histograms in sorted-session order and write the report into outDir.
// It returns the cluster.leap bytes.
func replayMerge(rec *tracer, dirs []string, outDir string) ([]byte, error) {
	const id = "merge"
	root := rec.begin(id, spMerge, 0)
	defer rec.end(root)
	finals := make(map[string]*checkpoint.State)
	for _, dir := range dirs {
		s := rec.begin(id, "checkpoint.LoadFinalDir", root)
		states, skipped, err := checkpoint.LoadFinalDir(dir)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		if len(skipped) > 0 {
			return nil, fmt.Errorf("merge replay: %d unusable final state(s) in %s", len(skipped), dir)
		}
		for sid, st := range states {
			finals[sid] = st
		}
	}
	ids := make([]string, 0, len(finals))
	for sid := range finals {
		ids = append(ids, sid)
	}
	sort.Strings(ids)

	var (
		lps     []*leap.Profile
		merged  = stride.NewIdeal()
		summary bytes.Buffer
	)
	fmt.Fprintf(&summary, "# cluster whomp summary\nsessions %d\nskipped 0\n", len(ids))
	for _, sid := range ids {
		st := finals[sid]
		s := rec.begin(id, "omc.FromSnapshot", root)
		wOMC, err := omc.FromSnapshot(st.WhompOMC)
		var lOMC *omc.OMC
		if err == nil {
			lOMC, err = omc.FromSnapshot(st.LeapOMC)
		}
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("merge replay %s: %w", sid, err)
		}
		s = rec.begin(id, "whomp.SCCFromSnapshot", root)
		wSCC, err := whomp.SCCFromSnapshot(st.Whomp)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("merge replay %s: %w", sid, err)
		}
		s = rec.begin(id, "leap.SCCFromSnapshot", root)
		lSCC, err := leap.SCCFromSnapshot(st.Leap)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("merge replay %s: %w", sid, err)
		}
		s = rec.begin(id, "stride.FromSnapshot", root)
		ideal, err := stride.FromSnapshot(st.Stride)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("merge replay %s: %w", sid, err)
		}
		s = rec.begin(id, "govern.RestoreLadder", root)
		m := &footprintMode{wOMC: wOMC, wSCC: wSCC, lOMC: lOMC, lSCC: lSCC, ideal: ideal}
		lad, err := govern.RestoreLadder(govern.Config{Budget: govern.NewBudget(0), Seed: sessionSeed(sid),
			Full: func() govern.Mode { return m }}, st.Ladder, m)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("merge replay %s: %w", sid, err)
		}
		s = rec.begin(id, "profile.build", root)
		wp := &whomp.Profile{Workload: st.Workload, Records: wSCC.Records(), Grammars: wSCC.Grammars(), Objects: whomp.FromOMC(wOMC)}
		lps = append(lps, lSCC.BuildProfile(st.Workload))
		fmt.Fprintf(&summary, "session %s workload %s rung %s frames %d events %d records %d objects %d symbols %d\n",
			sid, st.Workload, lad.Rung(), st.FramesApplied, st.EventsApplied, wp.Records, wp.Objects.NumObjects(), wp.Symbols())
		rec.end(s)
		s = rec.begin(id, "stride.Ideal.Merge", root)
		merged.Merge(ideal)
		rec.end(s)
	}
	s := rec.begin(id, "leap.Merge", root)
	mergedLeap := leap.Merge(lps...)
	rec.end(s)

	s = rec.begin(id, "report.write", root)
	defer rec.end(s)
	var l, st bytes.Buffer
	if _, err := mergedLeap.WriteTo(&l); err != nil {
		return nil, err
	}
	if err := serveStride(&st, merged, stride.FromLEAP(mergedLeap)); err != nil {
		return nil, err
	}
	for name, b := range map[string][]byte{"cluster.leap": l.Bytes(), "cluster.stride": st.Bytes(), "cluster.whomp": summary.Bytes()} {
		if err := writeRenamed(filepath.Join(outDir, name), b); err != nil {
			return nil, err
		}
	}
	return l.Bytes(), nil
}

// serveStride renders a stride report with the daemon's serialization.
func serveStride(b *bytes.Buffer, ideal *stride.Ideal, est map[trace.InstrID]stride.Info) error {
	return serve.WriteStrideReport(bufio.NewWriter(b), ideal.StronglyStrided(), est)
}
