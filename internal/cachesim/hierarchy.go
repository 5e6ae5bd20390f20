package cachesim

import "ormprof/internal/trace"

// Hierarchy chains caches into a memory hierarchy: an access that misses
// level i is looked up in level i+1 (inclusive levels, LRU at each).
// It reports per-level statistics, so layout experiments can see where a
// proposal helps (an L1-resident working set gains nothing from L2 wins).
type Hierarchy struct {
	levels []*Cache
}

// NewHierarchy builds a hierarchy from first (closest) to last (largest)
// level. At least one level is required; line sizes may differ.
func NewHierarchy(cfgs ...Config) *Hierarchy {
	if len(cfgs) == 0 {
		panic("cachesim: hierarchy needs at least one level")
	}
	h := &Hierarchy{levels: make([]*Cache, len(cfgs))}
	for i, cfg := range cfgs {
		h.levels[i] = New(cfg)
	}
	return h
}

// Access simulates one access; each level is consulted only for the lines
// that missed the previous one. It returns the number of accesses that
// missed every level (reached memory).
func (h *Hierarchy) Access(addr trace.Addr, size uint32) int {
	// Line-level filtering across levels with different line sizes is
	// approximated by forwarding the whole access when any line missed.
	missed := h.levels[0].Access(addr, size)
	for i := 1; i < len(h.levels) && missed > 0; i++ {
		missed = h.levels[i].Access(addr, size)
	}
	return missed
}

// Level returns the statistics of level i (0 = closest).
func (h *Hierarchy) Level(i int) Stats { return h.levels[i].Stats() }

// Levels reports the number of levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// MemoryAccesses reports how many line accesses reached memory (missed the
// last level).
func (h *Hierarchy) MemoryAccesses() uint64 { return h.levels[len(h.levels)-1].Stats().Misses }

// AMAT estimates the average memory access time in cycles for the given
// per-level hit latencies plus memory latency (lengths: len(levels)+1).
// It weights each level's latency by the fraction of line accesses that
// reach it.
func (h *Hierarchy) AMAT(latencies ...float64) float64 {
	if len(latencies) != len(h.levels)+1 {
		panic("cachesim: AMAT needs one latency per level plus memory")
	}
	total := float64(h.levels[0].Stats().Lines)
	if total == 0 {
		return 0
	}
	// Every line access pays L1; each level's misses pay the next level.
	cycles := total * latencies[0]
	for i, lvl := range h.levels {
		cycles += float64(lvl.Stats().Misses) * latencies[i+1]
	}
	return cycles / total
}
