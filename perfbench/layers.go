package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// ledger is a traced run's replay record.
type ledger struct {
	spans         []span
	self          []time.Duration
	sessions      []*sessionReplay
	symbols       int
	offlineEvents int
	offlineTraces int
	traceBytes    int64
}

// agg sums self time and calls of spans by "parent-name/name", where the
// parent is the nearest ancestor that is a replay root or a checkpoint.
type agg map[string]struct {
	self  time.Duration
	calls int
}

func (l *ledger) aggregate() agg {
	l.self = selfTimes(l.spans)
	a := make(agg)
	for i, s := range l.spans {
		key := s.Name
		if s.Parent != 0 {
			key = l.spans[s.Parent-1].Name + "/" + s.Name
		}
		v := a[key]
		v.self += l.self[i]
		v.calls++
		a[key] = v
	}
	return a
}

func (a agg) ms(key string) float64 { return ms(a[key].self) }

// perCall is the mean self time per call in milliseconds.
func (a agg) perCall(key string) float64 {
	if a[key].calls == 0 {
		return 0
	}
	return a.ms(key) / float64(a[key].calls)
}

// perEvent is the self time in nanoseconds per event.
func (a agg) perEvent(key string, events int) float64 {
	if events == 0 {
		return 0
	}
	return float64(a[key].self) / float64(events)
}

// rootNs sums the durations of root spans of one name per trace ID.
func (l *ledger) rootNs(name string) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range l.spans {
		if s.Parent == 0 && s.Name == name {
			out[s.Trace] += s.End - s.Start
		}
	}
	return out
}

// layerMetrics derives the per-layer metrics. Each workload's ledger is
// the replay that mirrors its own path (the offline tools for offline,
// the daemon session for the daemon workloads); layers that path does
// not cross come from the other replay over the same traces.
func layerMetrics(workload string, led *ledger, untraced, traced *e2e) map[string]float64 {
	a := led.aggregate()
	isOffline := workload == "offline"
	// The offline tools cross no daemon stage: their daemon-layer numbers
	// come from supplement sessions of their own short traces.
	sess, ckName := spSession, spCheckpoint
	if isOffline {
		sess, ckName = spSuppSession, spSuppCheckpoint
	}
	var dEvents, nCkpt, ckBytes int
	for _, s := range led.sessions {
		if s.supp != isOffline {
			continue
		}
		dEvents += s.in.events
		nCkpt += len(s.ckptBytes)
		for _, b := range s.ckptBytes {
			ckBytes += b
		}
	}
	oEvents := led.offlineEvents
	pick := func(offlineKey, daemonKey string) float64 {
		if isOffline {
			return a.perEvent(offlineKey, oEvents)
		}
		return a.perEvent(daemonKey, dEvents)
	}
	perCk := func(name string) float64 {
		if nCkpt == 0 {
			return 0
		}
		return a.ms(ckName+"/"+name) / float64(nCkpt)
	}
	m := map[string]float64{
		"omc.translate_ns_per_event":  a.perEvent(sess+"/omc.translate", dEvents),
		"omc.snapshot_ms":             perCk("omc.Snapshot"),
		"whomp.consume_ns_per_event":  a.perEvent(sess+"/whomp.SCC.Consume", dEvents),
		"whomp.parallel_ns_per_event": a.perEvent(spOffline+"/whomp.NewParallel", oEvents),
		"whomp.snapshot_ms":           perCk("whomp.SCC.Snapshot"),
		"whomp.restore_ms":            a.ms(spMerge + "/whomp.SCCFromSnapshot"),
		"whomp.grammar_symbols":       float64(led.symbols),
		"leap.consume_ns_per_event":   pick(spOffline+"/leap.NewParallel", spSession+"/leap.SCC.Consume"),
		"leap.snapshot_ms":            perCk("leap.SCC.Snapshot"),
		"leap.merge_ms":               a.ms(spMerge + "/leap.Merge"),
		"stride.ideal_ns_per_event":   pick(spOffline+"/stride.Ideal.Emit", spSession+"/stride.Ideal.Emit"),
		"govern.ladder_ns_per_event":  a.perEvent(sess+"/govern.Ladder.Emit", dEvents),
		"checkpoint.encode_ms":        perCk("checkpoint.Encode"),
		"checkpoint.write_ms":         perCk("atomicfile.Write"),
		"checkpoint.load_ms":          a.ms(spMerge + "/checkpoint.LoadFinalDir"),
		"serve.retries":               float64(untraced.retries + traced.retries),
		"trace.overhead_pct":          100 * (median(untraced.unitRate) - median(traced.unitRate)) / median(untraced.unitRate),
	}
	if nCkpt > 0 {
		m["checkpoint.bytes"] = float64(ckBytes) / float64(nCkpt)
	}
	if isOffline {
		// Three tools decode the trace: per decoded event.
		m["tracefmt.decode_ns_per_event"] = a.perEvent(spOffline+"/tracefmt.Reader", 3*oEvents)
		m["stride.fromleap_ms"] = a.perCall(spOffline + "/stride.FromLEAP")
		m["profile.write_ms"] = a.ms(spOffline+"/profile.write") / float64(max(led.offlineTraces, 1))
		m["serve.wire_bytes_per_event"] = float64(led.traceBytes) / float64(max(oEvents, 1))
	} else {
		m["tracefmt.decode_ns_per_event"] = a.perEvent(spSession+"/tracefmt.DecodeFrameInto", dEvents)
		m["stride.fromleap_ms"] = a.perCall(spSession + "/stride.FromLEAP")
		m["profile.write_ms"] = a.perCall(spSession + "/profile.write")
		m["serve.wire_bytes_per_event"] = float64(traced.bytesOut) / float64(max(traced.events, 1))
		if traced.acks > 0 {
			m["serve.frames_per_ack"] = float64(traced.ackFrames) / float64(traced.acks)
		}
	}
	wall, replay := reconcile(workload, led, untraced)
	m["serve.gap_ns_per_event"] = wall - replay
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return m
}

// reconcile compares the untraced wall time per event with the replay's
// time per event over the same traces: per offline pass, or per session
// (its Push → Bye against the replay of its trace). Their difference,
// serve.gap_ns_per_event, is what the stage sum does not account for —
// queueing, the wire, the router, contention between sessions.
func reconcile(workload string, led *ledger, untraced *e2e) (wallNs, replayNs float64) {
	if workload == "offline" {
		var replay int64
		for _, ns := range led.rootNs(spOffline) {
			replay += ns
		}
		if untraced.events == 0 || led.offlineEvents == 0 {
			return 0, 0
		}
		return float64(untraced.wall) / float64(untraced.events), float64(replay) / float64(led.offlineEvents)
	}
	replay := led.rootNs(spSession)
	var wall, expected float64
	var events int
	for _, s := range led.sessions {
		if s.supp {
			continue
		}
		n := untraced.sessEvents[s.in.name]
		if n == 0 {
			continue
		}
		wall += float64(untraced.sessWall[s.in.name])
		expected += float64(replay[s.id]) / float64(s.in.events) * float64(n)
		events += n
	}
	if events == 0 {
		return 0, 0
	}
	return wall / float64(events), expected / float64(events)
}

// printReconciliation writes the ledger's reconciliation with the
// untraced measurement: per event for ingest, and for the cluster the
// merge replay against report_s.
func printReconciliation(w io.Writer, workload string, led *ledger, untraced *e2e) {
	wall, replay := reconcile(workload, led, untraced)
	what := "session Push→Bye"
	if workload == "offline" {
		what = "offline pass"
	}
	fmt.Fprintf(w, "\nreconciliation: untraced %s %.1f ns/event, replay stage sum %.1f ns/event, gap %.1f ns/event (%.1f%% of wall)\n",
		what, wall, replay, wall-replay, 100*(wall-replay)/wall)
	if workload == "cluster-short" && len(untraced.reportS) > 0 {
		var merge int64
		for _, ns := range led.rootNs(spMerge) {
			merge += ns
		}
		rep := median(untraced.reportS)
		fmt.Fprintf(w, "reconciliation: untraced report_s %.3f s, merge replay stage sum %.3f s, gap %.3f s\n",
			rep, float64(merge)/1e9, rep-float64(merge)/1e9)
	}
}

// printStages writes the stage table of each replay: per span name under
// roots of that replay, calls, self time, share and time per event.
func printStages(w io.Writer, led *ledger) {
	if led.self == nil {
		led.self = selfTimes(led.spans)
	}
	rootOf := make([]string, len(led.spans))
	for i, s := range led.spans {
		if s.Parent == 0 {
			rootOf[i] = s.Name
		} else {
			rootOf[i] = rootOf[s.Parent-1]
		}
	}
	events := map[string]int{spOffline: led.offlineEvents}
	for _, s := range led.sessions {
		if s.supp {
			events[spSuppSession] += s.in.events
		} else {
			events[spSession] += s.in.events
		}
	}
	for _, root := range []string{spOffline, spSession, spSuppSession, spMerge} {
		type row struct {
			name  string
			calls int
			self  time.Duration
		}
		idx := make(map[string]int)
		var rows []row
		var total time.Duration
		for i, s := range led.spans {
			if rootOf[i] != root {
				continue
			}
			j, ok := idx[s.Name]
			if !ok {
				j = len(rows)
				idx[s.Name] = j
				rows = append(rows, row{name: s.Name})
			}
			rows[j].calls++
			rows[j].self += led.self[i]
			total += led.self[i]
		}
		if len(rows) == 0 {
			continue
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
		fmt.Fprintf(w, "\nstage table: %s (%d events)\n", root, events[root])
		fmt.Fprintf(w, "  %-28s %8s %12s %7s %12s\n", "stage", "calls", "self_ms", "share", "ns/event")
		for _, r := range rows {
			per := "-"
			if n := events[root]; n > 0 {
				per = fmt.Sprintf("%.1f", float64(r.self)/float64(n))
			}
			fmt.Fprintf(w, "  %-28s %8d %12.1f %6.1f%% %12s\n", r.name, r.calls, ms(r.self), 100*float64(r.self)/float64(total), per)
		}
		fmt.Fprintf(w, "  %-28s %8s %12.1f\n", "sum", "", ms(total))
	}
}
