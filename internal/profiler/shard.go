package profiler

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file implements the parallel fan-out stages of the profiling
// pipeline. The CDC itself is inherently sequential — the OMC is stateful
// and every translation depends on the allocations that preceded it — but
// everything downstream of translation decomposes: WHOMP's four dimension
// grammars are data-independent, and LEAP's vertically decomposed
// (instruction, group) streams only ever observe records of their own key.
// Two fan-out shapes cover both:
//
//   - Sharded partitions the record stream by key: each record goes to
//     exactly one worker, chosen by a ShardFunc. Records that share a shard
//     stay in stream order, which is all a vertical decomposition needs to
//     reproduce the sequential result exactly.
//   - Broadcast replicates the record stream: every worker sees every
//     record, in stream order. A horizontal decomposition needs the full
//     stream per dimension, so WHOMP's grammar builders use this shape.
//
// Both stages batch records before the channel send (DefaultShardBatch,
// following the async collector's design) so the per-record synchronization
// cost is amortized to a fraction of a channel operation.
//
// Batch ownership: batches are reference-counted (recBatch) and recycled
// through a per-stage pool. The producer fills a batch, sets its refcount
// to the number of receiving lanes (1 for Sharded, N for Broadcast), and
// sends the same pointer to each; every lane — including a crashed lane's
// drain loop — releases its reference when done, and the last release
// returns the batch to the pool. The steady-state fan-out therefore
// allocates nothing: batches cycle between the producer and the pool.
//
// Fault containment: a panic inside a worker's SCC is recovered, recorded
// as a *WorkerError, and the dead lane keeps draining its queue — the
// single producer can never block on a crashed worker, Finish still joins
// every goroutine (no leaks), and the surviving shards' state remains
// readable. Deadlines are enforced upstream, by the producer's drain
// (trace.DrainContext): a stage only ever sees the records the drain
// delivered, and Finish joins every lane.

// ShardFunc assigns a record to a worker shard. It must be deterministic —
// the same record always maps to the same shard — and must send every
// record of one vertically decomposed substream to the same shard, or the
// per-substream ordering guarantee is lost.
type ShardFunc func(Record, int) int

// DefaultShardBatch is the per-worker record batch size. One channel send
// per ~4096 records keeps synchronization overhead well under the cost of
// compressing the batch.
const DefaultShardBatch = 4096

// shardQueueDepth bounds the per-worker queue: the producer blocks once a
// worker is this many batches behind, bounding pipeline memory.
const shardQueueDepth = 8

// DefaultWorkers resolves a worker-count setting: values above zero are
// taken as given, anything else selects runtime.GOMAXPROCS(0).
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerError is the typed error a fan-out stage reports when a worker's
// SCC panicked. The panic is contained in that worker: its lane drains
// without consuming further, and the stage's Finish still joins cleanly.
type WorkerError struct {
	// Worker is the index of the crashed lane.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("profiler: worker %d panicked: %v", e.Worker, e.Value)
}

// stageErr is the shared first-error slot of a fan-out stage.
type stageErr struct {
	mu  sync.Mutex
	err error
}

func (s *stageErr) set(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *stageErr) get() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// recBatch is a reference-counted record batch shared between fan-out
// lanes. The producer sets refs to the number of receivers before sending;
// each receiver treats the records as read-only and calls release when
// done. The last release recycles the batch through the stage pool.
type recBatch struct {
	recs []Record
	refs atomic.Int32
}

func (b *recBatch) release(pool *sync.Pool) {
	if b.refs.Add(-1) == 0 {
		b.recs = b.recs[:0]
		pool.Put(b)
	}
}

// getBatch draws an empty batch from the stage pool.
func getBatch(pool *sync.Pool) *recBatch {
	return pool.Get().(*recBatch)
}

// newBatchPool builds a stage's batch pool.
func newBatchPool(batchSize int) sync.Pool {
	return sync.Pool{New: func() any {
		return &recBatch{recs: make([]Record, 0, batchSize)}
	}}
}

// shardWorker is one fan-out lane: a batch being filled by the producer, a
// queue, and a goroutine draining the queue into an SCC.
type shardWorker struct {
	scc   SCC
	ch    chan *recBatch
	batch *recBatch
}

func (w *shardWorker) run(idx int, done *sync.WaitGroup, pool *sync.Pool, fail *stageErr) {
	defer done.Done()
	if err := w.work(pool); err != nil {
		err.Worker = idx
		fail.set(err)
		// The lane is dead, but the single producer must never block on
		// it: keep draining until the queue closes, still releasing each
		// batch so the surviving lanes' recycling keeps working.
		for batch := range w.ch {
			batch.release(pool)
		}
	}
}

// work consumes the lane's queue into the SCC and finishes it, converting
// a panic anywhere in the SCC into a *WorkerError.
func (w *shardWorker) work(pool *sync.Pool) (werr *WorkerError) {
	defer func() {
		if v := recover(); v != nil {
			werr = &WorkerError{Value: v, Stack: debug.Stack()}
		}
	}()
	for batch := range w.ch {
		for i := range batch.recs {
			w.scc.Consume(batch.recs[i])
		}
		batch.release(pool)
	}
	w.scc.Finish()
	return nil
}

// Sharded is a parallel SCC stage that partitions the record stream across
// N workers by a shard function. Each worker owns one downstream SCC;
// because a worker's queue is FIFO and filled by the single producer,
// every shard observes its records in original stream order — the
// per-substream order a vertical decomposition requires. Consume must be
// called from a single goroutine (the CDC), like any SCC.
type Sharded struct {
	workers []shardWorker
	shard   ShardFunc
	batchSz int
	pool    sync.Pool
	done    sync.WaitGroup
	records uint64
	fail    stageErr
}

// NewSharded starts n workers, each draining into the SCC built by newSCC
// for its shard index. shard routes records; batchSize ≤ 0 selects
// DefaultShardBatch.
func NewSharded(n, batchSize int, shard ShardFunc, newSCC func(shard int) SCC) *Sharded {
	if n < 1 {
		n = 1
	}
	if batchSize <= 0 {
		batchSize = DefaultShardBatch
	}
	s := &Sharded{
		workers: make([]shardWorker, n),
		shard:   shard,
		batchSz: batchSize,
	}
	s.pool = newBatchPool(batchSize)
	s.done.Add(n)
	for i := range s.workers {
		w := &s.workers[i]
		w.scc = newSCC(i)
		w.ch = make(chan *recBatch, shardQueueDepth)
		w.batch = getBatch(&s.pool)
		go w.run(i, &s.done, &s.pool, &s.fail)
	}
	return s
}

// Consume implements SCC: the record is routed to its shard's batch and the
// batch is flushed to the worker when full.
func (s *Sharded) Consume(r Record) {
	s.records++
	w := &s.workers[s.shard(r, len(s.workers))]
	w.batch.recs = append(w.batch.recs, r)
	if len(w.batch.recs) == s.batchSz {
		s.send(w)
	}
}

// send queues the worker's full batch and starts a fresh one.
func (s *Sharded) send(w *shardWorker) {
	w.batch.refs.Store(1)
	w.ch <- w.batch
	w.batch = getBatch(&s.pool)
}

// Finish implements SCC: it flushes every partial batch, closes the queues,
// and joins the workers. When it returns, every worker SCC has consumed its
// full substream and had its own Finish called (crashed lanes excepted),
// and is safe to read. Check Err for faults.
func (s *Sharded) Finish() {
	for i := range s.workers {
		w := &s.workers[i]
		if len(w.batch.recs) > 0 {
			s.send(w)
		}
		w.batch = nil
		close(w.ch)
	}
	s.done.Wait()
}

// Err reports the stage's first fault — a *WorkerError if an SCC panicked.
// It is nil after a clean run. Call after Finish for the final verdict.
func (s *Sharded) Err() error { return s.fail.get() }

// Records reports how many records the stage has routed.
func (s *Sharded) Records() uint64 { return s.records }

// NumWorkers reports the shard count.
func (s *Sharded) NumWorkers() int { return len(s.workers) }

// SCC returns shard i's downstream SCC. Only call after Finish (the worker
// goroutine owns the SCC until then).
func (s *Sharded) SCC(i int) SCC { return s.workers[i].scc }

// Broadcast is a parallel SCC stage that replicates the record stream to N
// workers: every worker's SCC consumes every record, in original stream
// order. Batches are shared read-only between the workers, with a
// reference count set to the worker count per flush; the last worker done
// with a batch recycles it, so the steady state allocates nothing.
// Consume must be called from a single goroutine.
type Broadcast struct {
	workers []shardWorker
	batch   *recBatch
	batchSz int
	pool    sync.Pool
	done    sync.WaitGroup
	records uint64
	fail    stageErr
}

// NewBroadcast starts one worker per downstream SCC. batchSize ≤ 0 selects
// DefaultShardBatch.
func NewBroadcast(batchSize int, sccs ...SCC) *Broadcast {
	if batchSize <= 0 {
		batchSize = DefaultShardBatch
	}
	b := &Broadcast{
		workers: make([]shardWorker, len(sccs)),
		batchSz: batchSize,
	}
	b.pool = newBatchPool(batchSize)
	b.batch = getBatch(&b.pool)
	b.done.Add(len(sccs))
	for i := range b.workers {
		w := &b.workers[i]
		w.scc = sccs[i]
		w.ch = make(chan *recBatch, shardQueueDepth)
		go w.run(i, &b.done, &b.pool, &b.fail)
	}
	return b
}

// Consume implements SCC.
func (b *Broadcast) Consume(r Record) {
	b.records++
	b.batch.recs = append(b.batch.recs, r)
	if len(b.batch.recs) == b.batchSz {
		b.flush()
	}
}

func (b *Broadcast) flush() {
	if len(b.batch.recs) == 0 {
		return
	}
	// Refs must cover every lane before the first send: a fast worker may
	// release its reference while later sends are still in flight.
	b.batch.refs.Store(int32(len(b.workers)))
	for i := range b.workers {
		b.workers[i].ch <- b.batch
	}
	b.batch = getBatch(&b.pool)
}

// Finish implements SCC: flush, close, join. When it returns every worker
// SCC has seen the full stream, been finished (crashed lanes excepted),
// and is safe to read. Check Err for faults.
func (b *Broadcast) Finish() {
	b.flush()
	for i := range b.workers {
		close(b.workers[i].ch)
	}
	b.done.Wait()
}

// Err reports the stage's first fault — a *WorkerError if an SCC panicked.
// It is nil after a clean run. Call after Finish for the final verdict.
func (b *Broadcast) Err() error { return b.fail.get() }

// Records reports how many records the stage has broadcast.
func (b *Broadcast) Records() uint64 { return b.records }
