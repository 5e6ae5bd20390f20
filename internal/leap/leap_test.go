package leap

import (
	"bytes"
	"errors"
	"testing"

	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/trace"
	"ormprof/internal/workloads"
)

// syntheticTrace builds a trace with one strided store/load pair over a
// heap array plus one irregular load.
func syntheticTrace() *trace.Buffer {
	buf := &trace.Buffer{}
	m := memsim.New(buf)
	m.Start()
	arr := m.Alloc(1, 1024)
	for i := 0; i < 64; i++ {
		m.Store(1, arr+trace.Addr(i*8), 8) // strided store
	}
	for i := 0; i < 64; i++ {
		m.Load(2, arr+trace.Addr(i*8), 8) // strided load: depends on instr 1
	}
	// Irregular load: pseudo-random offsets.
	for i := 0; i < 64; i++ {
		m.Load(3, arr+trace.Addr((i*137)%1024/8*8), 8)
	}
	m.Free(arr)
	m.End()
	return buf
}

func TestLEAPProfileStructure(t *testing.T) {
	buf := syntheticTrace()
	p := New(nil, 0)
	buf.Replay(p)
	profile := p.Profile("synthetic")

	if profile.Records != 192 {
		t.Fatalf("Records = %d", profile.Records)
	}
	if len(profile.Instrs()) != 3 {
		t.Fatalf("instrs = %v", profile.Instrs())
	}
	if profile.InstrExecs[1] != 64 || !profile.InstrStore[1] {
		t.Error("instr 1 bookkeeping wrong")
	}
	if profile.InstrStore[2] || profile.InstrStore[3] {
		t.Error("loads marked as stores")
	}

	keys := profile.Keys()
	if len(keys) != 3 {
		t.Fatalf("streams = %d", len(keys))
	}
	// The strided store must compress into a single timed LMAD.
	s1 := profile.Streams[StreamKey{Instr: 1, Group: profileGroup(profile)}]
	if s1 == nil {
		t.Fatal("no stream for instr 1")
	}
	if len(s1.LMADs) != 1 || s1.LMADs[0].Count != 64 {
		t.Errorf("store stream LMADs = %v", s1.LMADs)
	}
	if s1.LMADs[0].Stride[DimOffset] != 8 || s1.LMADs[0].Stride[DimTime] != 1 {
		t.Errorf("store stride = %v", s1.LMADs[0].Stride)
	}
	if s1.Overflowed || s1.Captured != 64 {
		t.Errorf("store stream: overflowed=%v captured=%d", s1.Overflowed, s1.Captured)
	}
}

// profileGroup returns the single heap group in the synthetic profile.
func profileGroup(p *Profile) omc.GroupID {
	for k := range p.Streams {
		if k.Group != omc.Unmapped {
			return k.Group
		}
	}
	return omc.Unmapped
}

func TestSampleQuality(t *testing.T) {
	buf := syntheticTrace()
	p := New(nil, 5) // tiny budget: the irregular load must overflow
	buf.Replay(p)
	profile := p.Profile("synthetic")

	accPct, instrPct := profile.SampleQuality()
	if accPct <= 0 || accPct >= 100 {
		t.Errorf("accesses captured = %.1f%%, want strictly between 0 and 100", accPct)
	}
	// 2 of 3 instructions fully captured.
	if instrPct < 60 || instrPct > 70 {
		t.Errorf("instructions captured = %.1f%%, want ~66.7%%", instrPct)
	}
}

func TestCompressionRatio(t *testing.T) {
	buf := syntheticTrace()
	p := New(nil, 0)
	buf.Replay(p)
	profile := p.Profile("synthetic")
	if r := profile.CompressionRatio(); r <= 1 {
		t.Errorf("compression ratio = %.2f, want > 1", r)
	}
	if profile.TotalLMADs() == 0 {
		t.Error("no LMADs collected")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	// Use a real workload for a structurally rich profile.
	prog, err := workloads.New("197.parser", workloads.Config{Scale: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	memsim.Run(prog, buf)

	p := New(nil, 0)
	buf.Replay(p)
	profile := p.Profile("197.parser")

	var out bytes.Buffer
	if _, err := profile.WriteTo(&out); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if out.Len() != profile.EncodedSize() {
		t.Errorf("EncodedSize = %d, actual = %d", profile.EncodedSize(), out.Len())
	}

	back, err := ReadProfile(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("ReadProfile: %v", err)
	}
	if back.Workload != profile.Workload || back.Records != profile.Records {
		t.Error("metadata mismatch")
	}
	if len(back.Streams) != len(profile.Streams) {
		t.Fatalf("stream count: %d vs %d", len(back.Streams), len(profile.Streams))
	}
	for _, k := range profile.Keys() {
		a, b := profile.Streams[k], back.Streams[k]
		if b == nil {
			t.Fatalf("stream %v missing after round trip", k)
		}
		if a.Offered != b.Offered || a.Captured != b.Captured ||
			a.OffsetCaptured != b.OffsetCaptured ||
			a.Store != b.Store || a.Overflowed != b.Overflowed ||
			a.OffsetOverflowed != b.OffsetOverflowed {
			t.Fatalf("stream %v scalar fields differ", k)
		}
		if len(a.LMADs) != len(b.LMADs) || len(a.OffsetLMADs) != len(b.OffsetLMADs) {
			t.Fatalf("stream %v LMAD counts differ", k)
		}
		for i := range a.LMADs {
			la, lb := a.LMADs[i], b.LMADs[i]
			if la.Count != lb.Count {
				t.Fatalf("stream %v LMAD %d count differs", k, i)
			}
			for d := 0; d < NumDims; d++ {
				if la.Start[d] != lb.Start[d] || la.Stride[d] != lb.Stride[d] {
					t.Fatalf("stream %v LMAD %d vectors differ", k, i)
				}
			}
		}
		for i := range a.OffsetLMADs {
			la, lb := a.OffsetLMADs[i], b.OffsetLMADs[i]
			if la.Count != lb.Count || la.Reps != lb.Reps {
				t.Fatalf("stream %v offset LMAD %d differs", k, i)
			}
		}
		if a.Overflowed {
			for d := 0; d < NumDims; d++ {
				if a.Summary.Min[d] != b.Summary.Min[d] || a.Summary.Max[d] != b.Summary.Max[d] ||
					a.Summary.Granularity[d] != b.Summary.Granularity[d] {
					t.Fatalf("stream %v summary differs", k)
				}
			}
			if a.Summary.Points != b.Summary.Points {
				t.Fatalf("stream %v summary points differ", k)
			}
		}
	}
	for id, e := range profile.InstrExecs {
		if back.InstrExecs[id] != e || back.InstrStore[id] != profile.InstrStore[id] {
			t.Fatalf("instr %d metadata differs", id)
		}
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := ReadProfile(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadProfile(bytes.NewReader([]byte("BADMAGIC"))); err == nil {
		t.Error("bad magic accepted")
	}
	buf := syntheticTrace()
	p := New(nil, 0)
	buf.Replay(p)
	var full bytes.Buffer
	if _, err := p.Profile("x").WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < full.Len(); cut += 7 {
		if _, err := ReadProfile(bytes.NewReader(full.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated profile (%d of %d bytes) accepted", cut, full.Len())
		}
	}
}

// TestReadProfileRejectsPaddedVarint: the workload-name length written in
// a two-byte, non-minimal form is refused, so every profile has one byte
// form (docs/FORMATS.md, "Varints").
func TestReadProfileRejectsPaddedVarint(t *testing.T) {
	buf := syntheticTrace()
	p := New(nil, 0)
	buf.Replay(p)
	var full bytes.Buffer
	if _, err := p.Profile("x").WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	b := full.Bytes()
	if b[len(leapMagic)] != 1 {
		t.Fatalf("workload length byte %#x, want 1", b[len(leapMagic)])
	}
	padded := append(append([]byte(leapMagic), 0x81, 0x00), b[len(leapMagic)+1:]...)
	if _, err := ReadProfile(bytes.NewReader(padded)); !errors.Is(err, ErrBadProfile) {
		t.Errorf("padded varint: err %v, want ErrBadProfile", err)
	}
}

func TestUnmappedAccessesAreProfiled(t *testing.T) {
	buf := &trace.Buffer{}
	m := memsim.New(buf)
	m.Start()
	// Accesses with no live object: group 0, offset = raw address.
	m.Load(1, 0xdead0, 8)
	m.Load(1, 0xdead8, 8)
	m.End()

	p := New(nil, 0)
	buf.Replay(p)
	profile := p.Profile("unmapped")
	s := profile.Streams[StreamKey{Instr: 1, Group: omc.Unmapped}]
	if s == nil {
		t.Fatal("no unmapped stream")
	}
	if s.Offered != 2 {
		t.Errorf("Offered = %d", s.Offered)
	}
}
