package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ormprof/internal/cliutil"
	"ormprof/internal/leap"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

// offlineNames are the traces the offline workload replays: the seven
// Table 1 workloads plus hotcold and chase.
func offlineNames() []string { return append(workloads.Names(), "hotcold", "chase") }

// goldenPath holds the seed profiles' SHA-256s (seed 42, scale 1).
const goldenPath = "testdata/seed_profiles.json"

// offline replays recorded traces through the offline tools' entry
// points: whomp and leap at the default -workers, then stridescan's
// stride.Ideal pass plus stride.FromLEAP, each writing its profile.
type offline struct {
	golden map[string]struct{ Whomp, Leap string }
	ins    []*input
	dir    string
}

func (o *offline) setup(dir string, seed int64) error {
	o.dir = dir
	if seed == 42 {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			return fmt.Errorf("read golden profiles: %w", err)
		}
		if err := json.Unmarshal(data, &o.golden); err != nil {
			return fmt.Errorf("parse %s: %w", goldenPath, err)
		}
	}
	for _, sub := range []string{"traces", "out"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	var err error
	o.ins, err = makeInputs(offlineNames(), seed, filepath.Join(dir, "traces"), true)
	return err
}

func (o *offline) close() {}

// toolOutputs are one trace's three profiles as the tools wrote them.
type toolOutputs struct{ whomp, leap, stride []byte }

// profileTrace runs the three tools over one trace file. report is the
// time spent serializing and writing profiles.
func (o *offline) profileTrace(rec *tracer, in *input) (out toolOutputs, report time.Duration, err error) {
	workers := runtime.GOMAXPROCS(0) // the tools' -workers default
	root := rec.begin(in.name, spOffline, 0)
	defer rec.end(root)
	ev, err := (&cliutil.TraceFlags{Replay: in.path}).Load("", workloads.Config{})
	if err != nil {
		return out, 0, err
	}
	base := filepath.Join(o.dir, "out", ev.Name)
	write := func(ext string, render func(*bytes.Buffer) error) ([]byte, error) {
		s := rec.begin(in.name, "profile.write", root)
		defer rec.end(s)
		t := time.Now()
		var b bytes.Buffer
		if err := render(&b); err != nil {
			return nil, err
		}
		err := os.WriteFile(base+ext, b.Bytes(), 0o644)
		report += time.Since(t)
		return b.Bytes(), err
	}

	s := rec.begin(in.name, "whomp", root)
	wp := whomp.NewParallel(ev.Sites, workers)
	_, err = ev.Pass(wp)
	wprof := wp.Profile(ev.Name)
	rec.end(s)
	if err != nil {
		return out, 0, err
	}
	if out.whomp, err = write(".whomp", func(b *bytes.Buffer) error { _, err := wprof.WriteTo(b); return err }); err != nil {
		return out, 0, err
	}

	s = rec.begin(in.name, "leap", root)
	lp := leap.NewParallel(ev.Sites, 0, workers)
	_, err = ev.Pass(lp)
	lprof := lp.Profile(ev.Name)
	rec.end(s)
	if err != nil {
		return out, 0, err
	}
	if out.leap, err = write(".leap", func(b *bytes.Buffer) error { _, err := lprof.WriteTo(b); return err }); err != nil {
		return out, 0, err
	}

	s = rec.begin(in.name, "stride", root)
	ideal := stride.NewIdeal()
	_, err = ev.Pass(ideal)
	est := stride.FromLEAP(lprof)
	rec.end(s)
	if err != nil {
		return out, 0, err
	}
	out.stride, err = write(".stride", func(b *bytes.Buffer) error { return serveStride(b, ideal, est) })
	return out, report, err
}

// unitSeconds is a pass's nominal duration on the two-CPU host the
// benchmark was tuned on.
func (o *offline) unitSeconds() float64 { return 6 }

// measure replays every trace once per pass. The offline tools
// acknowledge an event when its trace's three profiles are written, so
// each trace job is a latency sample for each of its events: from the
// start of the trace's replay to its last profile written.
func (o *offline) measure(passes int, rec *tracer, res *e2e) error {
	for pass := 0; pass < passes; pass++ {
		t0 := time.Now()
		var events int
		var report time.Duration
		outs := make([]toolOutputs, len(o.ins))
		for i, in := range o.ins {
			t := time.Now()
			out, rep, err := o.profileTrace(rec, in)
			res.attempted++
			if err != nil {
				res.failed++
				res.mismatch("%s: %v", in.name, err)
				continue
			}
			res.ackMS = append(res.ackMS, weighted{ms(time.Since(t)), in.events})
			events += in.events
			report += rep
			outs[i] = out
		}
		last := time.Since(t0)
		res.unitRate = append(res.unitRate, float64(events)/last.Seconds())
		res.reportS = append(res.reportS, report.Seconds())
		res.events += events
		res.wall += last
		for i, in := range o.ins {
			if outs[i].whomp != nil {
				o.check(res, in, outs[i])
			}
		}
	}
	return nil
}

// check compares one trace's outputs with its -workers 1 reference and,
// at seed 42, with the committed seed-profile hashes.
func (o *offline) check(res *e2e, in *input, out toolOutputs) {
	wb, lb, err := in.ref.render(in.name)
	if err != nil {
		res.mismatch("%s: %v", in.name, err)
		return
	}
	res.compare(in.name+".whomp", out.whomp, wb)
	res.compare(in.name+".leap", out.leap, lb)
	res.compare(in.name+".stride", out.stride, in.ref.stride)
	if g, ok := o.golden[in.name]; ok {
		res.checks += 2
		if sha(out.whomp) != g.Whomp || sha(out.leap) != g.Leap {
			res.mismatch("%s: profiles differ from %s", in.name, goldenPath)
		}
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ledger replays the offline tools stage by stage, then, for the layers
// only the daemon exercises, supplement sessions of the workload's own
// short traces through the daemon's stage sequence and the merge plane.
func (o *offline) ledger(rec *tracer, led *ledger, res *e2e) error {
	if err := offlineReplay(rec, led, o.ins, filepath.Join(o.dir, "replay")); err != nil {
		return err
	}
	var supp []*input
	for _, in := range o.ins {
		for _, n := range supplementNames {
			if in.name == n {
				supp = append(supp, in)
			}
		}
	}
	return supplementWith(rec, led, res, supp, filepath.Join(o.dir, "supplement"))
}

// offlineReplay replays each trace once with every tool's stages split
// at the module boundaries: the trace decode (tracefmt.Reader) apart from
// the profiler it feeds. Inputs held as frames are first recorded as
// ORMTRACE files in dir.
func offlineReplay(rec *tracer, led *ledger, ins []*input, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	for _, in := range ins {
		path := in.path
		if path == "" {
			path = filepath.Join(dir, in.name+".ormtrace")
			if err := framesToTrace(path, in); err != nil {
				return err
			}
		}
		if st, err := os.Stat(path); err == nil {
			led.traceBytes += st.Size()
		}
		root := rec.begin(in.name, spOffline, 0)
		decode := func() (*trace.Buffer, error) {
			s := rec.begin(in.name, "tracefmt.Reader", root)
			defer rec.end(s)
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r, err := tracefmt.NewReader(f)
			if err != nil {
				return nil, err
			}
			buf := &trace.Buffer{Events: make([]trace.Event, 0, in.events)}
			_, err = trace.Drain(r, buf)
			return buf, err
		}
		write := func(ext string, render func(*bytes.Buffer) error) error {
			s := rec.begin(in.name, "profile.write", root)
			defer rec.end(s)
			var b bytes.Buffer
			if err := render(&b); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "tool-"+in.name+ext), b.Bytes(), 0o644)
		}

		buf, err := decode()
		if err != nil {
			return err
		}
		s := rec.begin(in.name, "whomp.NewParallel", root)
		wp := whomp.NewParallel(in.sites, workers)
		buf.Replay(wp)
		wprof := wp.Profile(in.name)
		rec.end(s)
		if err := write(".whomp", func(b *bytes.Buffer) error { _, err := wprof.WriteTo(b); return err }); err != nil {
			return err
		}
		led.symbols = max(led.symbols, wprof.Symbols())

		if buf, err = decode(); err != nil {
			return err
		}
		s = rec.begin(in.name, "leap.NewParallel", root)
		lp := leap.NewParallel(in.sites, 0, workers)
		buf.Replay(lp)
		lprof := lp.Profile(in.name)
		rec.end(s)
		if err := write(".leap", func(b *bytes.Buffer) error { _, err := lprof.WriteTo(b); return err }); err != nil {
			return err
		}

		if buf, err = decode(); err != nil {
			return err
		}
		s = rec.begin(in.name, "stride.Ideal.Emit", root)
		ideal := stride.NewIdeal()
		buf.Replay(ideal)
		rec.end(s)
		s = rec.begin(in.name, "stride.FromLEAP", root)
		est := stride.FromLEAP(lprof)
		rec.end(s)
		if err := write(".stride", func(b *bytes.Buffer) error { return serveStride(b, ideal, est) }); err != nil {
			return err
		}
		rec.end(root)
		led.offlineEvents += in.events
		led.offlineTraces++
	}
	return nil
}

// readEvents decodes a whole ORMTRACE file.
func readEvents(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := tracefmt.NewReader(f)
	if err != nil {
		return nil, err
	}
	buf := &trace.Buffer{}
	_, err = trace.Drain(r, buf)
	return buf.Events, err
}

// framesToTrace records an input held as frames as an ORMTRACE file.
func framesToTrace(path string, in *input) error {
	buf := &trace.Buffer{}
	for _, fr := range in.frames {
		evs, err := tracefmt.DecodeFrame(fr)
		if err != nil {
			return err
		}
		buf.Events = append(buf.Events, evs...)
	}
	return writeTrace(path, in.name, buf, in.sites)
}
