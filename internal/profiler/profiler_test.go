package profiler

import (
	"testing"

	"ormprof/internal/omc"
	"ormprof/internal/trace"
)

// figure3Trace builds the paper's Figure 3 scenario: three linked-list
// nodes at scattered addresses, traversed by instruction 1 (data) and
// instruction 2 (next).
func figure3Trace() []trace.Event {
	nodes := []trace.Addr{0x1000, 0x1480, 0x1120}
	var events []trace.Event
	now := trace.Time(0)
	for _, n := range nodes {
		events = append(events, trace.Event{Kind: trace.EvAlloc, Site: 1, Addr: n, Size: 48, Time: now})
	}
	for _, n := range nodes {
		events = append(events,
			trace.Event{Kind: trace.EvAccess, Instr: 1, Addr: n, Size: 8, Time: now},
			trace.Event{Kind: trace.EvAccess, Instr: 2, Addr: n + 8, Size: 8, Time: now + 1},
		)
		now += 2
	}
	return events
}

func TestCDCTranslation(t *testing.T) {
	recs, o := TranslateTrace(figure3Trace(), nil)
	if len(recs) != 6 {
		t.Fatalf("translated %d records", len(recs))
	}
	// All records must be in the same group with ascending serials and the
	// paper's offsets: instruction 1 at offset 0, instruction 2 at 8.
	group := recs[0].Ref.Group
	if group == omc.Unmapped {
		t.Fatal("access translated to unmapped")
	}
	for i, r := range recs {
		if r.Ref.Group != group {
			t.Errorf("record %d group %d, want %d", i, r.Ref.Group, group)
		}
		wantSerial := uint32(i / 2)
		if r.Ref.Object != wantSerial {
			t.Errorf("record %d serial %d, want %d", i, r.Ref.Object, wantSerial)
		}
		wantOffset := uint64(0)
		if r.Instr == 2 {
			wantOffset = 8
		}
		if r.Ref.Offset != wantOffset {
			t.Errorf("record %d offset %d, want %d", i, r.Ref.Offset, wantOffset)
		}
	}
	if o.LiveCount() != 3 {
		t.Errorf("OMC live count = %d", o.LiveCount())
	}
}

func TestCDCPassesKindAndSize(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.EvAlloc, Site: 1, Addr: 0x1000, Size: 16},
		{Kind: trace.EvAccess, Instr: 5, Addr: 0x1000, Size: 4, Store: true, Time: 7},
	}
	recs, _ := TranslateTrace(events, nil)
	if len(recs) != 1 {
		t.Fatal("expected 1 record")
	}
	r := recs[0]
	if !r.Store || r.Size != 4 || r.Time != 7 || r.Instr != 5 {
		t.Errorf("record = %+v", r)
	}
}

func TestCDCRecordsCounter(t *testing.T) {
	o := omc.New(nil)
	col := &Collector{}
	cdc := NewCDC(o, col)
	for _, e := range figure3Trace() {
		cdc.Emit(e)
	}
	if cdc.Records() != 6 {
		t.Errorf("Records = %d", cdc.Records())
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Instr: 1, Ref: omc.Ref{Group: 2, Object: 3, Offset: 8}, Time: 9}
	if got := r.String(); got != "(ld1, 2, 3, 8, t9)" {
		t.Errorf("String = %q", got)
	}
	r.Store = true
	if got := r.String(); got != "(st1, 2, 3, 8, t9)" {
		t.Errorf("String = %q", got)
	}
}

func TestSCCFunc(t *testing.T) {
	n := 0
	var s SCC = SCCFunc(func(Record) { n++ })
	s.Consume(Record{})
	s.Finish()
	if n != 1 {
		t.Error("SCCFunc did not forward")
	}
}

// finishCounter is an SCC that collects records and counts Finish calls.
type finishCounter struct {
	Collector
	finished int
}

func (f *finishCounter) Finish() { f.finished++ }

func TestFanoutDeliversInOrder(t *testing.T) {
	a, b := &finishCounter{}, &finishCounter{}
	recs, _ := TranslateTrace(figure3Trace(), nil)
	cdc := NewCDC(omc.New(nil), Fanout{a, b})
	for _, e := range figure3Trace() {
		cdc.Emit(e)
	}
	cdc.Finish()
	for name, got := range map[string]*finishCounter{"first": a, "second": b} {
		if len(got.Records) != len(recs) {
			t.Fatalf("%s SCC got %d records, want %d", name, len(got.Records), len(recs))
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				t.Errorf("%s SCC record %d = %v, want %v", name, i, got.Records[i], recs[i])
			}
		}
		if got.finished != 1 {
			t.Errorf("%s SCC finished %d times, want 1", name, got.finished)
		}
	}
}

func TestCDCFootprint(t *testing.T) {
	o := omc.New(nil)
	a, b := &Collector{}, &Collector{}
	silent := SCCFunc(func(Record) {}) // does not account
	cdc := NewCDC(o, Fanout{a, silent, b})
	for _, e := range figure3Trace() {
		cdc.Emit(e)
	}
	want := o.Footprint() + a.Footprint() + b.Footprint()
	if got := cdc.Footprint(); got != want {
		t.Errorf("CDC footprint = %d, want OMC + accounting SCCs = %d", got, want)
	}
	if got := NewCDC(o, silent).Footprint(); got != o.Footprint() {
		t.Errorf("CDC over a non-accounting SCC = %d, want the OMC's %d", got, o.Footprint())
	}
	if got := NewCDC(o, a).Footprint(); got != o.Footprint()+a.Footprint() {
		t.Errorf("CDC over one collector = %d, want %d", got, o.Footprint()+a.Footprint())
	}
}
