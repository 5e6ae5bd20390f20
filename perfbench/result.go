package main

import (
	"bytes"
	"fmt"
	"time"
)

// e2e collects one measurement's end-to-end samples and its operation
// ledger: operations attempted (Push attempts, offline trace jobs,
// merges, output checks) and those that failed (Push errors, retried
// attempts, output mismatches).
type e2e struct {
	attempted, failed, checks int
	mismatches                []string

	unitRate []float64  // events per second of each pass, round or cycle
	ackMS    []weighted // latency samples: per Ack, or per offline trace job weighted by its events
	reportS  []float64  // report samples: offline serialization, cluster merges
	byeS     []float64  // per session, its last Ack read to its Bye read
	events   int        // events fully profiled
	wall     time.Duration

	// Client-side session accounting (daemon workloads).
	sessWall   map[string]time.Duration // by input name: summed Push→Bye
	sessEvents map[string]int
	acks       int
	ackFrames  int
	bytesOut   int64
	retries    int
}

func (r *e2e) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// compare is one output check.
func (r *e2e) compare(name string, got, want []byte) {
	r.attempted++
	r.checks++
	if !bytes.Equal(got, want) {
		r.failed++
		r.mismatch("%s: %d bytes differ from the %d-byte reference", name, len(got), len(want))
	}
}

// addSession folds one completed session's client-side observations in.
func (r *e2e) addSession(p pushResult) {
	if r.sessWall == nil {
		r.sessWall, r.sessEvents = make(map[string]time.Duration), make(map[string]int)
	}
	t := p.tap
	t.mu.Lock()
	defer t.mu.Unlock()
	r.sessWall[p.in.name] += p.wall
	r.sessEvents[p.in.name] += p.in.events
	for _, v := range t.ackLatMS {
		r.ackMS = append(r.ackMS, weighted{v, 1})
	}
	r.acks += len(t.ackCover)
	for _, n := range t.ackCover {
		r.ackFrames += n
	}
	r.bytesOut += t.bytesOut
	r.retries += p.stats.Retries
	r.attempted++
	r.checks++
	if int(t.acked) != p.stats.FramesAcked {
		r.failed++
		r.mismatch("session %s: tap saw cursor %d, client %d", p.id, t.acked, p.stats.FramesAcked)
	}
	if !t.byeAt.IsZero() && !t.lastAck.IsZero() {
		r.byeS = append(r.byeS, t.byeAt.Sub(t.lastAck).Seconds())
	}
}

func (r *e2e) merge(o *e2e) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.checks += o.checks
	r.mismatches = append(r.mismatches, o.mismatches...)
}

// ackP50 and ackTail are the reported latency percentiles.
func (r *e2e) ackP50() float64  { return atRankW(r.ackMS, medianRank(count(r.ackMS))) }
func (r *e2e) ackTail() float64 { return atRankW(r.ackMS, tailRank(count(r.ackMS))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
