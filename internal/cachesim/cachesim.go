// Package cachesim provides a set-associative LRU cache simulator.
//
// The paper motivates object-relative profiles with data-layout
// optimizations — cache-conscious placement, field reordering, object
// clustering (§1, §3.2, related work [4][13]). Evaluating those
// optimizations needs a cache model: this package replays address streams
// through a configurable cache and reports hit/miss statistics, so the
// layout package can quantify a proposed layout against the original.
package cachesim

import (
	"fmt"

	"ormprof/internal/trace"
)

// Config describes a cache. The zero value is not valid; use a preset or
// fill all fields.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity (1 = direct mapped)
}

// L1D is a typical small L1 data cache (32 KiB, 64-byte lines, 8-way), the
// default evaluation target.
var L1D = Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}

// L2 is a mid-size second-level cache (256 KiB, 64-byte lines, 8-way).
var L2 = Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8}

// Sets reports the number of sets the configuration yields.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cachesim: non-positive config %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d not a power of two", c.LineBytes)
	}
	sets := c.Sets()
	if sets <= 0 || c.SizeBytes != sets*c.LineBytes*c.Ways {
		return fmt.Errorf("cachesim: size %d not divisible into %d-byte %d-way sets", c.SizeBytes, c.LineBytes, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cachesim: set count %d not a power of two", sets)
	}
	return nil
}

// Stats accumulates access results.
type Stats struct {
	Accesses uint64 // memory accesses simulated
	Lines    uint64 // cache lines touched (≥ Accesses; split accesses touch 2+)
	Hits     uint64
	Misses   uint64

	// Prefetches counts lines touched by Prefetch (not included above);
	// PrefetchHits are the already-resident (wasted) ones.
	Prefetches   uint64
	PrefetchHits uint64
}

// MissRate reports Misses/Lines (0 for an empty run).
func (s Stats) MissRate() float64 {
	if s.Lines == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lines)
}

// Cache is a set-associative LRU cache.
type Cache struct {
	cfg      Config
	setMask  uint64
	lineBits uint
	// sets[i] holds tags in LRU order, most recent first. A tag is the
	// line address (addr >> lineBits); valid entries only.
	sets  [][]uint64
	stats Stats
	// resident counts filled ways across all sets, maintained on insert so
	// Footprint is O(1).
	resident int
}

// New builds a cache; it panics on an invalid configuration (a programming
// error, caught by the validate tests).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(sets - 1),
		sets:    make([][]uint64, sets),
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

// Access simulates one memory access of size bytes at addr, touching every
// line the access overlaps. It returns the number of line misses incurred.
func (c *Cache) Access(addr trace.Addr, size uint32) int {
	if size == 0 {
		size = 1
	}
	c.stats.Accesses++
	first := uint64(addr) >> c.lineBits
	last := (uint64(addr) + uint64(size) - 1) >> c.lineBits
	misses := 0
	for line := first; line <= last; line++ {
		c.stats.Lines++
		if c.touch(line) {
			c.stats.Hits++
		} else {
			c.stats.Misses++
			misses++
		}
	}
	return misses
}

// touch looks the line up, updating LRU order and filling on miss; it
// reports whether the access hit.
func (c *Cache) touch(line uint64) bool {
	set := c.sets[line&c.setMask]
	for i, tag := range set {
		if tag == line {
			// Move to front.
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	// Miss: insert at front, evicting the LRU way if full.
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
		c.resident++
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[line&c.setMask] = set
	return false
}

// Prefetch fills the lines covering [addr, addr+size) without counting them
// in the demand statistics; Prefetches/PrefetchHits are tracked separately
// so a prefetching policy's accuracy and bandwidth cost are visible.
func (c *Cache) Prefetch(addr trace.Addr, size uint32) {
	if size == 0 {
		size = 1
	}
	first := uint64(addr) >> c.lineBits
	last := (uint64(addr) + uint64(size) - 1) >> c.lineBits
	for line := first; line <= last; line++ {
		c.stats.Prefetches++
		if c.touch(line) {
			c.stats.PrefetchHits++ // already resident: wasted prefetch
		}
	}
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
	c.stats = Stats{}
	c.resident = 0
}

// Replay drives the cache with every access event of a trace and returns
// the statistics.
func Replay(events []trace.Event, cfg Config) Stats {
	c := New(cfg)
	for _, e := range events {
		if e.Kind == trace.EvAccess {
			c.Access(e.Addr, e.Size)
		}
	}
	return c.Stats()
}
