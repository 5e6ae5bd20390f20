package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ormprof/internal/leap"
	"ormprof/internal/serve"
)

// daemon drives the ORMP/1 service: one in-process ormpd (daemon-long) or
// a cluster of one router and two shards (cluster-short). Two clients
// push sessions closed-loop: serve.Push keeps at most its 64-frame window
// unacknowledged, so a slower server receives less load.
type daemon struct {
	cluster bool
	names   []string // distinct traces
	plan    [2][]int // per client: the inputs it pushes, in order, each unit
	ins     []*input
	dir     string
	seed    int64

	srv      *serve.Server
	served   chan struct{}
	cl       *serve.Cluster
	addr     string
	mergeRef []byte // expected cluster.leap
}

// newDaemonLong: each unit, client 0 pushes gzip then vpr while client 1
// pushes vpr then gzip: four ≥245k-event sessions, two at a time, with
// both clients busy for the whole unit. Staggering the traces keeps the
// two sessions' expensive late checkpoints apart; pushing the same trace
// on both clients at once measured two to four times noisier.
func newDaemonLong() *daemon {
	return &daemon{
		names: []string{"164.gzip", "175.vpr"},
		plan:  [2][]int{{0, 1}, {1, 0}},
	}
}

// newClusterShort: sixteen short sessions rotating parser, chase, hotcold
// and mcf; client 1 starts half a rotation ahead, so each client pushes
// every workload twice.
func newClusterShort() *daemon {
	d := &daemon{cluster: true, names: []string{"197.parser", "chase", "hotcold", "181.mcf"}}
	for c := 0; c < 2; c++ {
		for j := 0; j < 8; j++ {
			d.plan[c] = append(d.plan[c], (j+2*c)%4)
		}
	}
	return d
}

// session names one pushed session of a unit.
type session struct {
	id, label string
	in        *input
}

// sessions lists unit u's sessions per client. Cluster session IDs repeat
// across units (the ring places them identically every time); daemon-long
// IDs carry the unit, client and position.
func (d *daemon) sessions(u int) [2][]session {
	var out [2][]session
	for c := range d.plan {
		for j, k := range d.plan[c] {
			in := d.ins[k]
			id := fmt.Sprintf("u%02dc%dj%d", u, c, j)
			if d.cluster {
				id = fmt.Sprintf("s%02d", 2*j+c)
			}
			out[c] = append(out[c], session{id: id, label: in.name + "-" + id, in: in})
		}
	}
	return out
}

func (d *daemon) setup(dir string, seed int64) error {
	d.dir, d.seed = dir, seed
	var err error
	if d.ins, err = makeInputs(d.names, seed, dir, false); err != nil {
		return err
	}
	if d.cluster {
		var ss []session
		for _, cs := range d.sessions(0) {
			ss = append(ss, cs...)
		}
		if d.mergeRef, err = mergedLeap(ss); err != nil {
			return err
		}
		d.cl, err = serve.NewCluster(serve.ClusterConfig{Dir: filepath.Join(dir, "cluster"), Shards: 2})
		if err != nil {
			return err
		}
		d.addr = d.cl.Addr()
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv, err = serve.New(ln, serve.Config{CheckpointDir: filepath.Join(dir, "ckpt"), OutputDir: filepath.Join(dir, "out")})
	if err != nil {
		ln.Close()
		return err
	}
	d.addr = ln.Addr().String()
	d.served = make(chan struct{})
	go func(srv *serve.Server, done chan struct{}) {
		defer close(done)
		srv.Serve()
	}(d.srv, d.served)
	return nil
}

// close shuts the server or cluster down and waits for it.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.cl != nil {
		d.cl.Shutdown(ctx)
		d.cl = nil
	}
	if d.srv != nil {
		d.srv.Shutdown(ctx)
		<-d.served
		d.srv = nil
	}
}

// outDirs are where finished sessions' profiles appear.
func (d *daemon) outDirs() []string {
	if !d.cluster {
		return []string{filepath.Join(d.dir, "out")}
	}
	return []string{filepath.Join(d.dir, "cluster", "shard0", "out"), filepath.Join(d.dir, "cluster", "shard1", "out")}
}

// pushResult is one session's client-side outcome.
type pushResult struct {
	session
	tap   *sessionTap
	stats serve.ClientStats
	wall  time.Duration
	err   error
}

// push runs one session through serve.Push.
func (d *daemon) push(s session, rec *tracer) pushResult {
	tap := newSessionTap(s.id, rec)
	cfg := serve.ClientConfig{Dial: tap.dial(d.addr), SessionID: s.id, Workload: s.label, Sites: s.in.sites}
	t := time.Now()
	stats, err := serve.Push(context.Background(), cfg, s.in.frames)
	r := pushResult{session: s, tap: tap, stats: stats, wall: time.Since(t), err: err}
	tap.finish()
	return r
}

// unitSeconds is a unit's nominal duration on the two-CPU host the
// benchmark was tuned on.
func (d *daemon) unitSeconds() float64 {
	if d.cluster {
		return 25
	}
	return 15
}

// measure runs units: in each, both clients push their sessions
// concurrently; the cluster then merges.
func (d *daemon) measure(units int, rec *tracer, res *e2e) error {
	for u := 0; u < units; u++ {
		t0 := time.Now()
		plan := d.sessions(u)
		var results [2][]pushResult
		var wg sync.WaitGroup
		for c := range plan {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, s := range plan[c] {
					results[c] = append(results[c], d.push(s, rec))
				}
			}(c)
		}
		wg.Wait()
		ingest := time.Since(t0)
		var events int
		for _, rs := range results {
			for _, r := range rs {
				res.attempted += r.stats.Attempts
				res.failed += r.stats.Retries
				if r.err != nil {
					res.failed++
					res.mismatch("session %s: %v", r.id, r.err)
					continue
				}
				events += r.in.events
				res.addSession(r)
			}
		}
		res.unitRate = append(res.unitRate, float64(events)/ingest.Seconds())
		res.events += events
		res.wall += ingest
		if d.cluster {
			t := time.Now()
			_, err := d.cl.Merge(filepath.Join(d.dir, "report"))
			res.reportS = append(res.reportS, time.Since(t).Seconds())
			res.attempted++
			if err != nil {
				res.failed++
				res.mismatch("merge: %v", err)
			} else {
				got, err := os.ReadFile(filepath.Join(d.dir, "report", "cluster.leap"))
				if err != nil {
					res.mismatch("merge: %v", err)
				}
				res.compare("cluster.leap", got, d.mergeRef)
			}
		}
		for _, rs := range results {
			for _, r := range rs {
				if r.err == nil {
					d.check(res, r.session)
				}
			}
		}
	}
	return nil
}

// check compares a finished session's three profiles with its reference
// and removes them, so the next unit's outputs are fresh.
func (d *daemon) check(res *e2e, s session) {
	wb, lb, err := s.in.ref.render(s.label)
	if err != nil {
		res.mismatch("%s: %v", s.id, err)
		return
	}
	want := map[string][]byte{".whomp": wb, ".leap": lb, ".stride": s.in.ref.stride}
	for _, ext := range []string{".whomp", ".leap", ".stride"} {
		var got []byte
		for _, dir := range d.outDirs() {
			p := filepath.Join(dir, s.label+ext)
			b, err := os.ReadFile(p)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				res.mismatch("%s%s: %v", s.label, ext, err)
			}
			got = b
			os.Remove(p)
		}
		res.compare(s.label+ext, got, want[ext])
	}
}

// ledger replays every distinct trace through the daemon's stage
// sequence, then the merge plane: over the cluster's own final states for
// cluster-short; daemon-long keeps no final states, so there the merge
// replay runs over supplement sessions. The offline tools' replay runs
// too, for the layers only they exercise.
func (d *daemon) ledger(rec *tracer, led *ledger, res *e2e) error {
	dir := filepath.Join(d.dir, "replay")
	if _, err := replaySessions(rec, led, res, d.ins, dir, d.cluster, false); err != nil {
		return err
	}
	var err error
	if d.cluster {
		err = replayMergeChecked(rec, res, d.cl.FinalDirs(), dir, d.mergeRef)
	} else {
		err = supplement(rec, led, res, d.seed, filepath.Join(d.dir, "supplement"))
	}
	if err != nil {
		return err
	}
	return offlineReplay(rec, led, d.ins, dir)
}

// supplementNames are the short traces supplement sessions replay.
var supplementNames = []string{"197.parser", "chase"}

// supplement replays short sessions, then the merge plane over their
// final states.
func supplement(rec *tracer, led *ledger, res *e2e, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ins, err := makeInputs(supplementNames, seed, dir, false)
	if err != nil {
		return err
	}
	return supplementWith(rec, led, res, ins, dir)
}

func supplementWith(rec *tracer, led *ledger, res *e2e, ins []*input, dir string) error {
	final, err := replaySessions(rec, led, res, ins, dir, true, true)
	if err != nil {
		return err
	}
	var ss []session
	for _, in := range ins {
		ss = append(ss, session{id: replayID(in), label: in.name, in: in})
	}
	ref, err := mergedLeap(ss)
	if err != nil {
		return err
	}
	return replayMergeChecked(rec, res, []string{final}, dir, ref)
}

// mergedLeap is the expected cluster.leap over sessions: leap.Merge of
// their references, in sorted session order.
func mergedLeap(ss []session) ([]byte, error) {
	ss = append([]session(nil), ss...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].id < ss[j].id })
	var lps []*leap.Profile
	for _, s := range ss {
		lp := *s.in.ref.leap
		lp.Workload = s.label
		lps = append(lps, &lp)
	}
	var b bytes.Buffer
	_, err := leap.Merge(lps...).WriteTo(&b)
	return b.Bytes(), err
}

// replaySessions replays ins as daemon sessions, checking each replayed
// session's profiles against its reference. With finals (as a cluster
// shard does) each session saves its final state; the directory holding
// them is returned.
func replaySessions(rec *tracer, led *ledger, res *e2e, ins []*input, dir string, finals, supp bool) (string, error) {
	ck, out, final := filepath.Join(dir, "ckpt"), filepath.Join(dir, "out"), ""
	dirs := []string{ck, out}
	if finals {
		final = filepath.Join(dir, "final")
		dirs = append(dirs, final)
	}
	for _, p := range dirs {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return "", err
		}
	}
	for _, in := range ins {
		if in.frames == nil {
			events, err := readEvents(in.path)
			if err != nil {
				return "", err
			}
			if in.frames, err = cutFrames(events); err != nil {
				return "", err
			}
		}
		r, err := replaySession(rec, replayID(in), in.name, in, ck, out, final, supp)
		if err != nil {
			return "", err
		}
		led.sessions = append(led.sessions, r)
		if !supp {
			led.symbols = max(led.symbols, r.symbols)
		}
		wb, lb, err := in.ref.render(in.name)
		if err != nil {
			return "", err
		}
		res.compare("replay "+in.name+".whomp", r.whomp, wb)
		res.compare("replay "+in.name+".leap", r.leap, lb)
		res.compare("replay "+in.name+".stride", r.stride, in.ref.stride)
	}
	return final, nil
}

// replayMergeChecked replays the merge plane over dirs and checks the
// replayed cluster.leap against want.
func replayMergeChecked(rec *tracer, res *e2e, dirs []string, dir string, want []byte) error {
	out := filepath.Join(dir, "report")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	got, err := replayMerge(rec, dirs, out)
	if err != nil {
		return err
	}
	res.compare("replay cluster.leap", got, want)
	return nil
}

func replayID(in *input) string { return "replay-" + in.name }
