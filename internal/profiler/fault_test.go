package profiler_test

import (
	"errors"
	"strings"
	"testing"

	"ormprof/internal/profiler"
	"ormprof/internal/testutil"
	"ormprof/internal/trace"
)

// panicSCC panics on the Nth consumed record (or on Finish when n < 0).
type panicSCC struct {
	n        int
	seen     int
	finished bool
}

func (p *panicSCC) Consume(profiler.Record) {
	p.seen++
	if p.n >= 0 && p.seen >= p.n {
		panic("scc exploded")
	}
}

func (p *panicSCC) Finish() {
	if p.n < 0 {
		panic("finish exploded")
	}
	p.finished = true
}

// countSCC counts records; the well-behaved neighbor of a crashing worker.
type countSCC struct {
	seen     int
	finished bool
}

func (c *countSCC) Consume(profiler.Record) { c.seen++ }
func (c *countSCC) Finish()                 { c.finished = true }

func feed(s profiler.SCC, n int) {
	for i := 0; i < n; i++ {
		s.Consume(profiler.Record{Time: trace.Time(i), Instr: trace.InstrID(i)})
	}
	s.Finish()
}

func TestShardedWorkerPanicContained(t *testing.T) {
	testutil.LeakCheck(t)
	var healthy countSCC
	bad := &panicSCC{n: 10}
	s := profiler.NewSharded(2, 8, func(r profiler.Record, n int) int {
		return int(r.Instr) % n
	}, func(shard int) profiler.SCC {
		if shard == 0 {
			return bad
		}
		return &healthy
	})
	feed(s, 10_000) // must not panic the producer and must not deadlock

	var we *profiler.WorkerError
	if err := s.Err(); !errors.As(err, &we) {
		t.Fatalf("Err = %v, want *WorkerError", err)
	} else {
		if we.Worker != 0 || we.Value != "scc exploded" {
			t.Errorf("WorkerError = {Worker:%d Value:%v}", we.Worker, we.Value)
		}
		if !strings.Contains(string(we.Stack), "goroutine") {
			t.Errorf("WorkerError.Stack missing stack trace")
		}
	}
	// The healthy shard consumed its full substream and was finished.
	if healthy.seen != 5000 || !healthy.finished {
		t.Errorf("healthy shard: seen %d finished %v, want 5000 true", healthy.seen, healthy.finished)
	}
	// The crashed shard must not have had Finish called.
	if bad.finished {
		t.Error("crashed shard was finished")
	}
}

func TestShardedFinishPanicContained(t *testing.T) {
	testutil.LeakCheck(t)
	var healthy countSCC
	s := profiler.NewSharded(2, 8, func(r profiler.Record, n int) int {
		return int(r.Instr) % n
	}, func(shard int) profiler.SCC {
		if shard == 0 {
			return &panicSCC{n: -1} // panics in Finish, not Consume
		}
		return &healthy
	})
	feed(s, 1000)
	var we *profiler.WorkerError
	if err := s.Err(); !errors.As(err, &we) {
		t.Fatalf("Err = %v, want *WorkerError", err)
	}
	if !healthy.finished {
		t.Error("healthy shard not finished")
	}
}

func TestBroadcastWorkerPanicContained(t *testing.T) {
	testutil.LeakCheck(t)
	var healthy countSCC
	b := profiler.NewBroadcast(8, &panicSCC{n: 5}, &healthy)
	feed(b, 10_000)
	var we *profiler.WorkerError
	if err := b.Err(); !errors.As(err, &we) {
		t.Fatalf("Err = %v, want *WorkerError", err)
	}
	if we.Worker != 0 {
		t.Errorf("WorkerError.Worker = %d, want 0", we.Worker)
	}
	if healthy.seen != 10_000 || !healthy.finished {
		t.Errorf("healthy worker: seen %d finished %v, want 10000 true", healthy.seen, healthy.finished)
	}
}

func TestShardedCleanRunNoError(t *testing.T) {
	testutil.LeakCheck(t)
	var a, b countSCC
	sccs := []*countSCC{&a, &b}
	s := profiler.NewSharded(2, 8, func(r profiler.Record, n int) int {
		return int(r.Instr) % n
	}, func(shard int) profiler.SCC { return sccs[shard] })
	feed(s, 1000)
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v, want nil", err)
	}
	if a.seen+b.seen != 1000 || !a.finished || !b.finished {
		t.Errorf("shards: %d+%d finished %v/%v", a.seen, b.seen, a.finished, b.finished)
	}
}
