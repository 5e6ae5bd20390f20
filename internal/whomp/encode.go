package whomp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ormprof/internal/codec"
	"ormprof/internal/decomp"
	"ormprof/internal/omc"
	"ormprof/internal/sequitur"
	"ormprof/internal/trace"
)

// Profile file format:
//
//	magic    "ORMWHOMP"
//	u8       version (1)
//	string   workload (uvarint length + bytes)
//	uvarint  record count
//	4 ×      grammar blob (uvarint length + sequitur encoding), in
//	         dimension order instr, group, object, offset
//	object table:
//	  uvarint  group count
//	  per group: uvarint site, string name, uvarint object count,
//	             per object: uvarint start, size, allocTime,
//	                         freeTime+freed flag (2·t + freed)

const profileMagic = "ORMWHOMP"

// profileVersion is bumped on any incompatible format change.
const profileVersion = 1

// ErrBadProfile reports a malformed or unsupported profile file.
var ErrBadProfile = errors.New("whomp: bad profile file")

// maxReadRecords bounds the access count ReadProfile will materialize
// (grammar expansions are one symbol per access per dimension).
const maxReadRecords = 1 << 26

// maxString and maxGrammarBytes bound the names and grammar blobs
// ReadProfile accepts.
const (
	maxString       = 1 << 20
	maxGrammarBytes = 1 << 26
)

// WriteTo serializes the profile. It returns the number of bytes written.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	b := append([]byte(profileMagic), profileVersion)
	b = codec.AppendString(b, p.Workload)
	b = binary.AppendUvarint(b, p.Records)
	for _, d := range decomp.Dims {
		blob := p.Grammars[d].Encode()
		b = binary.AppendUvarint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Objects.Groups)))
	for _, g := range p.Objects.Groups {
		b = binary.AppendUvarint(b, uint64(g.Site))
		b = codec.AppendString(b, g.Name)
		b = binary.AppendUvarint(b, uint64(len(g.Objects)))
		for _, o := range g.Objects {
			b = binary.AppendUvarint(b, uint64(o.Start))
			b = binary.AppendUvarint(b, uint64(o.Size))
			b = binary.AppendUvarint(b, uint64(o.AllocTime))
			ft := uint64(o.FreeTime) * 2
			if o.Freed {
				ft++
			}
			b = binary.AppendUvarint(b, ft)
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadProfile parses a profile written by WriteTo. The returned profile's
// grammars are decoded grammar structures able to expand; they are stored
// back as live grammars by re-feeding the expansion, so the result supports
// the same operations as a freshly collected profile.
func ReadProfile(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	if !bytes.HasPrefix(data, []byte(profileMagic)) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadProfile)
	}
	c := codec.NewCursor(data[len(profileMagic):])
	if ver := c.Byte(); c.Err() == nil && ver != profileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadProfile, ver)
	}
	p := &Profile{
		Workload: c.String(maxString),
		Records:  c.Uvarint(),
		Grammars: make(map[decomp.Dimension]*sequitur.Grammar),
		Objects:  &ObjectTable{},
	}
	// Each dimension stream has exactly one symbol per recorded access;
	// bounding the expansion by the declared record count blocks zip-bomb
	// grammars from untrusted inputs.
	if p.Records > maxReadRecords {
		return nil, fmt.Errorf("%w: unreasonable record count %d", ErrBadProfile, p.Records)
	}
	for _, d := range decomp.Dims {
		blob := c.Bytes(c.Count(maxGrammarBytes))
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("%w: grammar %v: %v", ErrBadProfile, d, err)
		}
		dec, err := sequitur.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: grammar %v: %v", ErrBadProfile, d, err)
		}
		seq, err := dec.ExpandLimit(int(p.Records))
		if err != nil {
			return nil, fmt.Errorf("%w: grammar %v: %v", ErrBadProfile, d, err)
		}
		if uint64(len(seq)) != p.Records {
			return nil, fmt.Errorf("%w: grammar %v expands to %d symbols, profile declares %d records",
				ErrBadProfile, d, len(seq), p.Records)
		}
		g := sequitur.New()
		g.AppendAll(seq)
		p.Grammars[d] = g
	}
	nGroups := c.Count(math.MaxUint64)
	for gi := 0; gi < nGroups; gi++ {
		ge := GroupEntry{ID: omc.GroupID(gi + 1), Site: trace.SiteID(c.Uvarint()), Name: c.String(maxString)}
		for oi, n := 0, c.Count(math.MaxUint64); oi < n; oi++ {
			oe := ObjectEntry{Start: trace.Addr(c.Uvarint()), Size: uint32(c.Uvarint()), AllocTime: trace.Time(c.Uvarint())}
			ft := c.Uvarint()
			oe.Freed = ft&1 == 1
			oe.FreeTime = trace.Time(ft >> 1)
			ge.Objects = append(ge.Objects, oe)
		}
		p.Objects.Groups = append(p.Objects.Groups, ge)
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProfile, err)
	}
	return p, nil
}
