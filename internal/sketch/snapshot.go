package sketch

import "fmt"

// Snapshot forms: exported, gob-encodable mirrors of each structure for
// ORMCKPT checkpoint/resume. Restore rebuilds a structure whose future
// behaviour is identical to the original's — same seed, same cells, same
// slot order — so a report produced after checkpoint/resume is
// byte-identical to one produced by an uninterrupted run.

// CountMinSnapshot mirrors CountMin.
type CountMinSnapshot struct {
	Depth int
	Width uint64
	Seed  uint64
	Rows  []uint64
	Total uint64
}

// Snapshot captures the sketch's complete state.
func (c *CountMin) Snapshot() *CountMinSnapshot {
	rows := make([]uint64, len(c.rows))
	copy(rows, c.rows)
	return &CountMinSnapshot{
		Depth: c.depth,
		Width: c.width,
		Seed:  c.seed,
		Rows:  rows,
		Total: c.total,
	}
}

// RestoreCountMin rebuilds a sketch from its snapshot.
func RestoreCountMin(s *CountMinSnapshot) (*CountMin, error) {
	if s == nil {
		return nil, fmt.Errorf("sketch: count-min snapshot missing")
	}
	if s.Depth < 1 || s.Width < 2 || s.Width&(s.Width-1) != 0 {
		return nil, fmt.Errorf("sketch: corrupt count-min snapshot: depth %d width %d", s.Depth, s.Width)
	}
	if uint64(len(s.Rows)) != uint64(s.Depth)*s.Width {
		return nil, fmt.Errorf("sketch: corrupt count-min snapshot: %d cells, want %d", len(s.Rows), uint64(s.Depth)*s.Width)
	}
	rows := make([]uint64, len(s.Rows))
	copy(rows, s.Rows)
	return &CountMin{
		depth: s.Depth,
		width: s.Width,
		seed:  s.Seed,
		rows:  rows,
		total: s.Total,
	}, nil
}

// BloomSnapshot mirrors Bloom.
type BloomSnapshot struct {
	Words []uint64
	K     int
	Seed  uint64
	Ones  uint64
	Adds  uint64
	News  uint64
}

// Snapshot captures the filter's complete state.
func (b *Bloom) Snapshot() *BloomSnapshot {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return &BloomSnapshot{
		Words: words,
		K:     b.k,
		Seed:  b.seed,
		Ones:  b.ones,
		Adds:  b.adds,
		News:  b.news,
	}
}

// RestoreBloom rebuilds a filter from its snapshot.
func RestoreBloom(s *BloomSnapshot) (*Bloom, error) {
	if s == nil {
		return nil, fmt.Errorf("sketch: bloom snapshot missing")
	}
	n := uint64(len(s.Words))
	if s.K < 1 || n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("sketch: corrupt bloom snapshot: %d words, k %d", n, s.K)
	}
	words := make([]uint64, len(s.Words))
	copy(words, s.Words)
	return &Bloom{
		words: words,
		mask:  n*64 - 1,
		k:     s.K,
		seed:  s.Seed,
		ones:  s.Ones,
		adds:  s.Adds,
		news:  s.News,
	}, nil
}

// TopKSnapshot mirrors TopK. Slots preserve internal slot order (not
// canonical report order) so eviction ties resolve identically after a
// restore.
type TopKSnapshot struct {
	K     int
	Total uint64
	Slots []Entry
}

// Snapshot captures the summary's complete state.
func (t *TopK) Snapshot() *TopKSnapshot {
	slots := make([]Entry, len(t.slots))
	copy(slots, t.slots)
	return &TopKSnapshot{K: t.k, Total: t.total, Slots: slots}
}

// RestoreTopK rebuilds a summary from its snapshot.
func RestoreTopK(s *TopKSnapshot) (*TopK, error) {
	if s == nil {
		return nil, fmt.Errorf("sketch: top-k snapshot missing")
	}
	if s.K < 1 || len(s.Slots) > s.K {
		return nil, fmt.Errorf("sketch: corrupt top-k snapshot: %d slots, k %d", len(s.Slots), s.K)
	}
	t := &TopK{
		k:     s.K,
		total: s.Total,
		idx:   make(map[Key]int, s.K),
		slots: make([]Entry, 0, s.K),
	}
	for i, e := range s.Slots {
		if _, dup := t.idx[e.Key]; dup {
			return nil, fmt.Errorf("sketch: corrupt top-k snapshot: duplicate key %v", e.Key)
		}
		t.idx[e.Key] = i
		t.slots = append(t.slots, e)
	}
	return t, nil
}
