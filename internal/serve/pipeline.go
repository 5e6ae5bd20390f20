package serve

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"ormprof/internal/checkpoint"
	"ormprof/internal/govern"
	"ormprof/internal/leap"
	"ormprof/internal/omc"
	"ormprof/internal/profiler"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/whomp"
)

// pipelineMode is one session's full profiling state: one CDC whose OMC
// translates each access once and fans the record out to the WHOMP and
// LEAP SCCs, plus the lossless stride profiler on the raw events. It is
// what checkpoints snapshot and what the final profiles are built from.
// The SCCs are deliberately the sequential ones: exact snapshots need
// single-threaded state, and the parallel stages are defined to produce
// byte-identical profiles anyway, so daemon output matches offline runs
// at any worker count.
//
// It implements govern.Mode, so a session's degradation ladder can
// account and, over budget, discard it.
type pipelineMode struct {
	*profiler.CDC
	whompSCC *whomp.SCC
	leapSCC  *leap.SCC
	ideal    *stride.Ideal
}

func newPipelineMode(o *omc.OMC, w *whomp.SCC, l *leap.SCC, ideal *stride.Ideal) *pipelineMode {
	return &pipelineMode{
		CDC:      profiler.NewCDC(o, profiler.Fanout{w, l}),
		whompSCC: w,
		leapSCC:  l,
		ideal:    ideal,
	}
}

func (m *pipelineMode) Emit(e trace.Event) {
	m.CDC.Emit(e)
	m.ideal.Emit(e)
}

func (m *pipelineMode) Footprint() int64 { return m.CDC.Footprint() + m.ideal.Footprint() }

// profiles finalizes the mode into its three profile artifacts.
func (m *pipelineMode) profiles(workload string) (*whomp.Profile, *leap.Profile, *stride.Ideal) {
	m.Finish()
	wp := &whomp.Profile{
		Workload: workload,
		Records:  m.whompSCC.Records(),
		Grammars: m.whompSCC.Grammars(),
		Objects:  whomp.FromOMC(m.OMC),
	}
	return wp, m.leapSCC.BuildProfile(workload), m.ideal
}

// pipeline is one session's profiling state behind its degradation
// ladder. Every session is governed — with no budget configured the
// ladder accounts footprint but never trips, so ungoverned behavior is
// unchanged — and the ladder is what checkpoints capture alongside the
// pipeline snapshots, so a resumed session continues on the same rung.
type pipeline struct {
	workload string
	sites    map[trace.SiteID]string

	lad      *govern.Ladder
	governed bool // a session or global budget is configured

	framesApplied uint64
	eventsApplied uint64
}

// sessionSeed derives the deterministic site-sampling seed from the
// session ID, so the sampled-rung subset is stable across reconnects and
// server restarts of the same session.
func sessionSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// ladderConfig is the one governance configuration of a session's
// ladder, fresh or restored: its budget, its site-sampling seed, and a
// fresh full pipeline whenever the ladder needs one.
func ladderConfig(sites map[trace.SiteID]string, maxLMADs int, budget *govern.Budget, seed uint64) govern.Config {
	return govern.Config{
		Budget: budget,
		Seed:   seed,
		Full: func() govern.Mode {
			return newPipelineMode(omc.New(sites), whomp.NewSCC(), leap.NewSCC(maxLMADs), stride.NewIdeal())
		},
	}
}

// newPipeline builds a fresh pipeline for a session. budget may be nil
// (account-only). With approx set the session's ladder starts directly at
// the sketch-stride rung (approximate mode) instead of full profiling.
func newPipeline(workload string, sites map[trace.SiteID]string, maxLMADs int, budget *govern.Budget, seed uint64, governed, approx bool) *pipeline {
	cfg := ladderConfig(sites, maxLMADs, budget, seed)
	if approx {
		cfg.StartRung = govern.RungSketchStride
	}
	return &pipeline{
		workload: workload,
		sites:    sites,
		lad:      govern.NewLadder(cfg),
		governed: governed,
	}
}

// pipelineFromState reconstructs a pipeline from a checkpoint. The
// restored footprint is re-accounted into budget, and the ladder resumes
// on the checkpointed rung — a degraded session never silently
// re-escalates to full profiling across a restart. The one OMC comes back
// from WhompOMC; LeapOMC, its copy, must still be present while ORMCKPT
// v1 carries it.
func pipelineFromState(st *checkpoint.State, maxLMADs int, budget *govern.Budget, governed bool) (*pipeline, error) {
	var full govern.Mode
	if st.Ladder == nil || st.Ladder.Rung.FullPipeline() {
		if st.WhompOMC == nil || st.Whomp == nil || st.LeapOMC == nil || st.Leap == nil || st.Stride == nil {
			return nil, fmt.Errorf("serve: checkpoint on a full-pipeline rung lacks a component snapshot")
		}
		o, err := omc.FromSnapshot(st.WhompOMC)
		if err != nil {
			return nil, fmt.Errorf("serve: restore OMC: %w", err)
		}
		wSCC, err := whomp.SCCFromSnapshot(st.Whomp)
		if err != nil {
			return nil, fmt.Errorf("serve: restore WHOMP SCC: %w", err)
		}
		lSCC, err := leap.SCCFromSnapshot(st.Leap)
		if err != nil {
			return nil, fmt.Errorf("serve: restore LEAP SCC: %w", err)
		}
		ideal, err := stride.FromSnapshot(st.Stride)
		if err != nil {
			return nil, fmt.Errorf("serve: restore stride profiler: %w", err)
		}
		full = newPipelineMode(o, wSCC, lSCC, ideal)
	}
	sites := st.SitesMap()
	lad, err := govern.RestoreLadder(ladderConfig(sites, maxLMADs, budget, sessionSeed(st.SessionID)), st.Ladder, full)
	if err != nil {
		return nil, fmt.Errorf("serve: restore governance ladder: %w", err)
	}
	return &pipeline{
		workload:      st.Workload,
		sites:         sites,
		lad:           lad,
		governed:      governed,
		framesApplied: st.FramesApplied,
		eventsApplied: st.EventsApplied,
	}, nil
}

// applyFrame feeds one decoded frame's events through the ladder and
// advances the cursor.
func (p *pipeline) applyFrame(events []trace.Event) {
	for _, e := range events {
		p.lad.Emit(e)
	}
	p.framesApplied++
	p.eventsApplied += uint64(len(events))
}

// fullMode returns the live full pipeline, or nil below the sampled rung.
func (p *pipeline) fullMode() *pipelineMode {
	m, _ := p.lad.FullMode().(*pipelineMode)
	return m
}

// release returns the pipeline's accounted bytes to the budget tree when
// the session retires, so a long-running server's global watermark tracks
// live sessions only.
func (p *pipeline) release() {
	b := p.lad.Budget()
	b.Add(-b.Used())
}

// state snapshots the pipeline into checkpoint form. Below the sampled
// rung the component snapshots are nil — the session's remaining output
// lives entirely in the ladder snapshot.
func (p *pipeline) state(sessionID string) (*checkpoint.State, error) {
	st := &checkpoint.State{
		SessionID:     sessionID,
		Workload:      p.workload,
		Sites:         checkpoint.SortSites(p.sites),
		FramesApplied: p.framesApplied,
		EventsApplied: p.eventsApplied,
		Ladder:        p.lad.Snapshot(),
	}
	m := p.fullMode()
	if m == nil {
		return st, nil
	}
	o, err := m.OMC.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot OMC: %w", err)
	}
	ws, err := m.whompSCC.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot WHOMP SCC: %w", err)
	}
	// One snapshot in both OMC fields: gob writes each field's value, so
	// the bytes are those of two equal OMCs.
	st.WhompOMC = o
	st.Whomp = ws
	st.LeapOMC = o
	st.Leap = m.leapSCC.Snapshot()
	st.Stride = m.ideal.Snapshot()
	return st, nil
}

// WriteStrideReport serializes a stride report deterministically: the
// lossless profiler's strongly strided instructions and the LEAP-derived
// estimate, one instruction per line. Both the daemon and offline
// comparisons use this one serialization, so byte equality is meaningful.
func WriteStrideReport(w *bufio.Writer, ideal map[trace.InstrID]stride.Info, est map[trace.InstrID]stride.Info) error {
	fmt.Fprintf(w, "# stride report\n")
	fmt.Fprintf(w, "ideal %d\n", len(ideal))
	for _, id := range stride.SortedIDs(ideal) {
		in := ideal[id]
		fmt.Fprintf(w, "%d %d %.4f\n", id, in.Stride, in.Frac)
	}
	fmt.Fprintf(w, "leap %d\n", len(est))
	for _, id := range stride.SortedIDs(est) {
		in := est[id]
		fmt.Fprintf(w, "%d %d %.4f\n", id, in.Stride, in.Frac)
	}
	fmt.Fprintf(w, "score %.2f\n", stride.Score(ideal, est))
	return w.Flush()
}

// writeArtifact writes bytes atomically (tmp + rename) so a reader never
// sees a half-written profile.
func writeArtifact(path string, write func(*bufio.Writer) error) error {
	// The tmp name must be unique per writer, not per path: sessions of
	// the same workload flush to the same base path, and two completing
	// concurrently on a shared tmp let one writer rename the other's
	// half-written file away (the loser's rename then fails ENOENT, the
	// flush fails, and retrying clients restream in lockstep and collide
	// again). With unique tmps the last rename wins with a complete file.
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if os.IsNotExist(err) {
		// Self-heal a missing output directory (operator cleanup, a
		// re-provisioned volume) instead of failing every flush until
		// the clients give up — the retry storm is worse than the mkdir.
		if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
			return err
		}
		f, err = os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	}
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// writeProfiles renders the final artifacts into dir: <workload>.whomp,
// <workload>.leap, and <workload>.stride while the full pipeline is live
// (full or object-sampled rung), plus <workload>.govern — which mode
// produced the output and the full step history — whenever the session is
// governed or has degraded. Below the sampled rung the .govern report IS
// the output.
func (p *pipeline) writeProfiles(dir string) error {
	base := filepath.Join(dir, sanitizeName(p.workload))
	if m := p.fullMode(); m != nil {
		wp, lp, ideal := m.profiles(p.workload)
		if err := writeArtifact(base+".whomp", func(w *bufio.Writer) error {
			_, err := wp.WriteTo(w)
			return err
		}); err != nil {
			return fmt.Errorf("serve: write WHOMP profile: %w", err)
		}
		if err := writeArtifact(base+".leap", func(w *bufio.Writer) error {
			_, err := lp.WriteTo(w)
			return err
		}); err != nil {
			return fmt.Errorf("serve: write LEAP profile: %w", err)
		}
		if err := writeArtifact(base+".stride", func(w *bufio.Writer) error {
			return WriteStrideReport(w, ideal.StronglyStrided(), stride.FromLEAP(lp))
		}); err != nil {
			return fmt.Errorf("serve: write stride report: %w", err)
		}
	}
	if p.governed || p.lad.Rung() != govern.RungFull {
		if err := writeArtifact(base+".govern", func(w *bufio.Writer) error {
			return p.lad.WriteReport(w)
		}); err != nil {
			return fmt.Errorf("serve: write governance report: %w", err)
		}
	}
	return nil
}

// sanitizeName makes a workload name safe as a file-name stem.
func sanitizeName(name string) string {
	if name == "" {
		return "workload"
	}
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
