package whomp

// Footprint reports the compression stage's approximate live bytes: the
// sum over the four dimension grammars, each of which maintains its own
// O(1) estimate.
func (s *SCC) Footprint() int64 {
	var n int64
	for _, g := range s.grammars {
		n += g.Footprint()
	}
	return n
}

// Footprint reports the raw-address profiler's approximate live bytes.
func (r *RASG) Footprint() int64 {
	return r.Instr.Footprint() + r.Addr.Footprint()
}
