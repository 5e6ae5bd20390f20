package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ormprof/internal/experiments"
	"ormprof/internal/leap"
	"ormprof/internal/serve"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

// frameEvents is the events per pushed frame (ormpush's default batch).
const frameEvents = 256

// input is one generated trace in the encoded form its workload hands to
// the system under test, plus the reference profiles built from it.
type input struct {
	name   string // workload name, as the trace header carries it
	sites  map[trace.SiteID]string
	events int

	path   string            // offline: the ORMTRACE file
	frames serve.SliceFrames // daemon workloads: standalone v3 frames
	ref    *reference
}

// reference is the offline -workers 1 result for one trace: the profiles
// every run of that trace, by any tool, must reproduce byte for byte.
type reference struct {
	whomp  *whomp.Profile
	leap   *leap.Profile
	stride []byte // the stride report carries no workload name
}

// render serializes the reference under a workload label: the daemon
// names its outputs after the label a session's Hello carries.
func (r *reference) render(label string) (wb, lb []byte, err error) {
	wp := *r.whomp
	wp.Workload = label
	var w bytes.Buffer
	if _, err := wp.WriteTo(&w); err != nil {
		return nil, nil, fmt.Errorf("render WHOMP reference: %w", err)
	}
	lp := *r.leap
	lp.Workload = label
	var l bytes.Buffer
	if _, err := lp.WriteTo(&l); err != nil {
		return nil, nil, fmt.Errorf("render LEAP reference: %w", err)
	}
	return w.Bytes(), l.Bytes(), nil
}

// strideReport renders a stride report the way the daemon and the merge
// plane do, so byte equality is meaningful.
func strideReport(ideal *stride.Ideal, lp *leap.Profile) ([]byte, error) {
	var b bytes.Buffer
	err := serveStride(&b, ideal, stride.FromLEAP(lp))
	return b.Bytes(), err
}

// generate runs the named workload at scale 1 under seed and returns its
// event buffer and site table.
func generate(name string, seed int64) (*trace.Buffer, map[trace.SiteID]string, error) {
	prog, err := workloads.New(name, workloads.Config{Scale: 1, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	buf, sites := experiments.Record(prog, nil)
	return buf, sites, nil
}

// buildReference profiles a trace the way the offline tools do at
// -workers 1.
func buildReference(name string, buf *trace.Buffer, sites map[trace.SiteID]string) (*reference, error) {
	wp := whomp.NewParallel(sites, 1)
	buf.Replay(wp)
	lp := leap.NewParallel(sites, 0, 1)
	buf.Replay(lp)
	ideal := stride.NewIdeal()
	buf.Replay(ideal)
	ref := &reference{whomp: wp.Profile(name), leap: lp.Profile(name)}
	var err error
	ref.stride, err = strideReport(ideal, ref.leap)
	return ref, err
}

// writeTrace records buf as an ORMTRACE file, as `-record` would.
func writeTrace(path, name string, buf *trace.Buffer, sites map[trace.SiteID]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := tracefmt.NewWriter(f, tracefmt.WithName(name))
	w.SetSites(sites)
	buf.Replay(w)
	if err := w.Close(); err != nil {
		f.Close()
		return fmt.Errorf("record %s: %w", path, err)
	}
	return f.Close()
}

// cutFrames slices events into standalone frames, as ormpush does.
func cutFrames(events []trace.Event) (serve.SliceFrames, error) {
	var frames serve.SliceFrames
	for i := 0; i < len(events); i += frameEvents {
		f, err := tracefmt.EncodeFrame(events[i:min(i+frameEvents, len(events))])
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// makeInputs generates every named trace under seed, encodes it for its
// workload (an ORMTRACE file in dir when asFiles, frames otherwise), and
// builds its reference. Two traces are processed at a time: the host the
// benchmark targets has two CPUs.
func makeInputs(names []string, seed int64, dir string, asFiles bool) ([]*input, error) {
	ins := make([]*input, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ins[i], errs[i] = makeInput(name, seed, dir, asFiles)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ins, nil
}

func makeInput(name string, seed int64, dir string, asFiles bool) (*input, error) {
	buf, sites, err := generate(name, seed)
	if err != nil {
		return nil, err
	}
	in := &input{name: name, sites: sites, events: buf.Len()}
	if asFiles {
		in.path = filepath.Join(dir, name+".ormtrace")
		if err := writeTrace(in.path, name, buf, sites); err != nil {
			return nil, err
		}
	} else if in.frames, err = cutFrames(buf.Events); err != nil {
		return nil, err
	}
	if in.ref, err = buildReference(name, buf, sites); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", name, err)
	}
	return in, nil
}
