package whomp

import (
	"bytes"
	"errors"
	"testing"

	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/trace"
	"ormprof/internal/workloads"
)

// collect runs the linked-list demo and returns its trace, site names, and
// machine.
func collectDemo(t *testing.T) (*trace.Buffer, map[trace.SiteID]string) {
	t.Helper()
	prog := workloads.NewLinkedList(workloads.Config{Scale: 1, Seed: 1})
	buf := &trace.Buffer{}
	m := memsim.Run(prog, buf)
	return buf, m.StaticSites()
}

func TestWHOMPLossless(t *testing.T) {
	// The central §3 property: the OMSG plus the object table regenerate
	// the raw access trace exactly.
	buf, sites := collectDemo(t)
	p := New(sites)
	buf.Replay(p)
	profile := p.Profile("linkedlist")

	accesses := buf.Accesses()
	if profile.Records != uint64(len(accesses)) {
		t.Fatalf("profile has %d records, trace has %d accesses", profile.Records, len(accesses))
	}

	instrs, addrs, err := profile.ReconstructAccesses()
	if err != nil {
		t.Fatalf("ReconstructAccesses: %v", err)
	}
	for i, a := range accesses {
		if instrs[i] != a.Instr {
			t.Fatalf("access %d: instr %d, want %d", i, instrs[i], a.Instr)
		}
		if addrs[i] != a.Addr {
			t.Fatalf("access %d: addr %#x, want %#x", i, uint64(addrs[i]), uint64(a.Addr))
		}
	}
}

func TestRASGLossless(t *testing.T) {
	buf, _ := collectDemo(t)
	r := NewRASG()
	buf.Replay(r)

	accesses := buf.Accesses()
	if r.Records() != uint64(len(accesses)) {
		t.Fatalf("RASG has %d records", r.Records())
	}
	instrs, addrs := r.Reconstruct()
	for i, a := range accesses {
		if instrs[i] != a.Instr || addrs[i] != a.Addr {
			t.Fatalf("access %d mismatch", i)
		}
	}
}

func TestProfileSerializationRoundTrip(t *testing.T) {
	buf, sites := collectDemo(t)
	p := New(sites)
	buf.Replay(p)
	profile := p.Profile("linkedlist")

	var out bytes.Buffer
	n, err := profile.WriteTo(&out)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(out.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, out.Len())
	}

	back, err := ReadProfile(&out)
	if err != nil {
		t.Fatalf("ReadProfile: %v", err)
	}
	if back.Workload != "linkedlist" || back.Records != profile.Records {
		t.Errorf("metadata: %q %d", back.Workload, back.Records)
	}

	// The round-tripped profile must reconstruct the identical trace.
	i1, a1, err := profile.ReconstructAccesses()
	if err != nil {
		t.Fatal(err)
	}
	i2, a2, err := back.ReconstructAccesses()
	if err != nil {
		t.Fatalf("reconstruct from decoded profile: %v", err)
	}
	if len(i1) != len(i2) {
		t.Fatalf("lengths differ: %d vs %d", len(i1), len(i2))
	}
	for i := range i1 {
		if i1[i] != i2[i] || a1[i] != a2[i] {
			t.Fatalf("access %d differs after serialization", i)
		}
	}

	// Object tables must agree.
	if back.Objects.NumObjects() != profile.Objects.NumObjects() {
		t.Errorf("object counts differ: %d vs %d", back.Objects.NumObjects(), profile.Objects.NumObjects())
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := ReadProfile(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadProfile(bytes.NewReader([]byte("NOTAPROF"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadProfile(bytes.NewReader([]byte("ORMWHOMP\xff"))); err == nil {
		t.Error("bad version accepted")
	}
	// Truncation anywhere must fail, not panic.
	buf, sites := collectDemo(t)
	p := New(sites)
	buf.Replay(p)
	var full bytes.Buffer
	if _, err := p.Profile("x").WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{10, full.Len() / 2, full.Len() - 1} {
		if _, err := ReadProfile(bytes.NewReader(full.Bytes()[:cut])); err == nil {
			t.Errorf("truncated profile (%d bytes) accepted", cut)
		}
	}
}

// TestReadProfileRejectsPaddedVarint: the workload-name length written in
// a two-byte, non-minimal form is refused, so every profile has one byte
// form (docs/FORMATS.md, "Varints").
func TestReadProfileRejectsPaddedVarint(t *testing.T) {
	buf, sites := collectDemo(t)
	p := New(sites)
	buf.Replay(p)
	var full bytes.Buffer
	if _, err := p.Profile("x").WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	b := full.Bytes()
	at := len(profileMagic) + 1 // past the version byte
	if b[at] != 1 {
		t.Fatalf("workload length byte %#x, want 1", b[at])
	}
	padded := append(append(append([]byte(nil), b[:at]...), 0x81, 0x00), b[at+1:]...)
	if _, err := ReadProfile(bytes.NewReader(padded)); !errors.Is(err, ErrBadProfile) {
		t.Errorf("padded varint: err %v, want ErrBadProfile", err)
	}
}

func TestCompressionGainOnRegularWorkload(t *testing.T) {
	// A pointer-chasing workload with allocation clutter: the
	// object-relative profile must be smaller (the paper's headline
	// claim, Figure 5).
	prog := workloads.NewLinkedList(workloads.Config{Scale: 4, Seed: 2})
	buf := &trace.Buffer{}
	m := memsim.Run(prog, buf)

	p := New(m.StaticSites())
	buf.Replay(p)
	profile := p.Profile("linkedlist")
	rasg := NewRASG()
	buf.Replay(rasg)

	gain := CompressionGain(profile, rasg)
	if gain <= 0 {
		t.Errorf("OMSG not smaller than RASG on linked-list traversal: gain = %.1f%% (OMSG %d bytes, RASG %d bytes)",
			gain, profile.EncodedBytes(), rasg.EncodedBytes())
	}
}

func TestObjectTableInvertErrors(t *testing.T) {
	tbl := &ObjectTable{Groups: []GroupEntry{{
		ID: 1, Site: 1, Name: "g",
		Objects: []ObjectEntry{{Start: 0x1000, Size: 16}},
	}}}
	if _, err := tbl.Invert(refOf(1, 0, 8)); err != nil {
		t.Errorf("valid ref: %v", err)
	}
	if _, err := tbl.Invert(refOf(1, 0, 16)); err == nil {
		t.Error("offset at object size accepted")
	}
	if _, err := tbl.Invert(refOf(1, 1, 0)); err == nil {
		t.Error("unknown serial accepted")
	}
	if _, err := tbl.Invert(refOf(9, 0, 0)); err == nil {
		t.Error("unknown group accepted")
	}
}

func refOf(g, obj, off uint64) omc.Ref {
	return omc.Ref{Group: omc.GroupID(g), Object: uint32(obj), Offset: off}
}
