package leap

import (
	"ormprof/internal/decomp"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
)

// ParallelSCC is the concurrent LEAP compression stage. The vertical
// decomposition by (instruction, group) that defines LEAP also defines its
// parallelism: a stream's LMAD compressors only ever see records of their
// own key, so the record stream shards cleanly across workers as long as
// all records of one key land on the same worker. Sharding by instruction
// ID (decomp.Shard) guarantees that, and additionally keeps each
// instruction's execution counters on a single worker, so the merged
// profile is the disjoint union of the shard profiles — no cross-worker
// reconciliation, and exactly the profile the sequential SCC builds.
//
// Each worker runs an ordinary sequential SCC over its shard of the
// stream; a profiler.Sharded stage routes batched records to the workers.
type ParallelSCC struct {
	sh     *profiler.Sharded
	shards []*SCC
}

// NewParallelSCC returns a LEAP compression stage with the given per-stream
// LMAD budget (≤ 0 selects lmad.DefaultMax) fanned out across workers
// shards.
func NewParallelSCC(maxLMADs, workers int) *ParallelSCC {
	if workers < 1 {
		workers = 1
	}
	p := &ParallelSCC{shards: make([]*SCC, workers)}
	p.sh = profiler.NewSharded(workers, profiler.DefaultShardBatch,
		func(r profiler.Record, n int) int { return decomp.Shard(r, n) },
		func(i int) profiler.SCC {
			s := NewSCC(maxLMADs)
			p.shards[i] = s
			return s
		})
	return p
}

// Consume implements profiler.SCC: the record is routed to its
// instruction's shard.
func (p *ParallelSCC) Consume(r profiler.Record) { p.sh.Consume(r) }

// Finish implements profiler.SCC: it flushes the shard queues and joins the
// workers; afterwards the shard SCCs are complete and safe to read.
func (p *ParallelSCC) Finish() { p.sh.Finish() }

// Err reports the sharded stage's first fault (nil after a clean run).
func (p *ParallelSCC) Err() error { return p.sh.Err() }

// BuildProfile merges the shard profiles into one Profile. The shards
// partition the key space by instruction, so the merge is a disjoint union:
// stream and instruction entries are simply collected, and the record count
// is the sum. Call after Finish.
func (p *ParallelSCC) BuildProfile(workload string) *Profile {
	out := &Profile{
		Workload:   workload,
		Streams:    make(map[StreamKey]*Stream),
		InstrExecs: make(map[trace.InstrID]uint64),
		InstrStore: make(map[trace.InstrID]bool),
	}
	for _, s := range p.shards {
		sp := s.BuildProfile(workload)
		out.Records += sp.Records
		for k, st := range sp.Streams {
			out.Streams[k] = st
		}
		for id, n := range sp.InstrExecs {
			out.InstrExecs[id] += n
		}
		for id, store := range sp.InstrStore {
			out.InstrStore[id] = store
		}
	}
	return out
}
