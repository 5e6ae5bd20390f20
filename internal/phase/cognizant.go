package phase

import (
	"ormprof/internal/leap"
	"ormprof/internal/profiler"
)

// CognizantLEAP is a phase-cognizant LEAP collector: records are buffered
// per interval, the interval is classified, and its records are routed to
// that phase's own LEAP compression stage. Each phase's streams are more
// homogeneous than the monolithic stream, so the same per-stream LMAD
// budget captures more of each (the §6 future-work payoff).
//
// It implements profiler.SCC and can replace leap.SCC in the pipeline.
type CognizantLEAP struct {
	det      *Detector
	maxLMADs int
	buf      []profiler.Record
	sccs     map[int]*leap.SCC
}

// NewCognizantLEAP creates a phase-cognizant collector. cfg tunes the
// detector; maxLMADs is the per-stream budget inside each phase (≤ 0 = the
// paper's 30).
func NewCognizantLEAP(cfg Config, maxLMADs int) *CognizantLEAP {
	return &CognizantLEAP{
		det:      NewDetector(cfg),
		maxLMADs: maxLMADs,
		sccs:     make(map[int]*leap.SCC),
	}
}

// Consume implements profiler.SCC.
func (c *CognizantLEAP) Consume(r profiler.Record) {
	c.buf = append(c.buf, r)
	if p, done := c.det.Observe(r.Instr); done {
		c.flush(p)
	}
}

// Finish implements profiler.SCC: the trailing partial interval is
// classified and flushed.
func (c *CognizantLEAP) Finish() {
	if len(c.buf) > 0 {
		c.det.Finish()
		phases := c.det.Intervals()
		c.flush(phases[len(phases)-1])
	}
	for _, s := range c.sccs {
		s.Finish()
	}
}

func (c *CognizantLEAP) flush(phase int) {
	scc := c.sccs[phase]
	if scc == nil {
		scc = leap.NewSCC(c.maxLMADs)
		c.sccs[phase] = scc
	}
	for _, r := range c.buf {
		scc.Consume(r)
	}
	c.buf = c.buf[:0]
}

// Detector exposes the underlying phase detector.
func (c *CognizantLEAP) Detector() *Detector { return c.det }

// Profiles freezes and returns one LEAP profile per phase.
func (c *CognizantLEAP) Profiles(workload string) map[int]*leap.Profile {
	out := make(map[int]*leap.Profile, len(c.sccs))
	for p, scc := range c.sccs {
		out[p] = scc.BuildProfile(workload)
	}
	return out
}

// Quality aggregates sample quality across the per-phase profiles: the
// fraction of all accesses captured (offset-level) and the total records.
func Quality(profiles map[int]*leap.Profile) (accessesPct float64, records uint64) {
	var offered, captured uint64
	for _, p := range profiles {
		records += p.Records
		for _, s := range p.Streams {
			offered += s.Offered
			captured += s.OffsetCaptured
		}
	}
	if offered == 0 {
		return 100, records
	}
	return 100 * float64(captured) / float64(offered), records
}
