package sequitur

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ormprof/internal/codec"
)

// Grammar serialization: a compact varint wire format used both to persist
// WHOMP profiles and to measure compressed profile size in bytes.
//
// Layout:
//
//	uvarint  ruleCount
//	per rule, in ascending rule-ID order:
//	  uvarint  bodyLen
//	  per symbol:
//	    uvarint  tag = value*2 + isRule
//	             (terminals store the raw value; non-terminals store the
//	             rule's *index* in the serialized order, so decoding needs
//	             no ID table)
//
// Terminal values must fit in 63 bits so the tag does not overflow. Every
// symbol a memory profiler compresses (instruction IDs, group IDs, object
// serials, offsets, virtual addresses) is far below 2^63.
//
// Rule IDs are not preserved across a round trip — only structure is, which
// is all losslessness requires.

// EncodedSize returns the exact size in bytes of Encode's output without
// materializing it.
func (g *Grammar) EncodedSize() int {
	return g.layout().size
}

// encoding is a grammar's serialized layout: its rules in ascending-ID
// order, each one's body length, and the exact byte size of Encode's
// output. Each rule's serialized index is left in its ord, so a
// non-terminal's tag costs no lookup.
type encoding struct {
	rules []*Rule
	lens  []int
	size  int
}

// layout computes the encoding with one sort of the rule IDs and one walk
// of every body; Encode then needs just one more walk to emit the bytes.
func (g *Grammar) layout() encoding {
	ids := g.RuleIDs()
	e := encoding{
		rules: make([]*Rule, len(ids)),
		lens:  make([]int, len(ids)),
		size:  uvarintLen(uint64(len(ids))),
	}
	for i, id := range ids {
		r := g.rules[id]
		r.ord = uint32(i)
		e.rules[i] = r
	}
	for i, r := range e.rules {
		n := 0
		for s := r.first(); !s.guard; s = s.next {
			if s.rule != nil {
				e.size += uvarintLen(uint64(s.rule.ord)*2 + 1)
			} else {
				e.size += uvarintLen(s.term * 2)
			}
			n++
		}
		e.lens[i] = n
		e.size += uvarintLen(uint64(n))
	}
	return e
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Encode serializes the grammar.
func (g *Grammar) Encode() []byte {
	e := g.layout()
	buf := make([]byte, 0, e.size)
	buf = binary.AppendUvarint(buf, uint64(len(e.rules)))
	for i, r := range e.rules {
		buf = binary.AppendUvarint(buf, uint64(e.lens[i]))
		for s := r.first(); !s.guard; s = s.next {
			if s.rule != nil {
				buf = binary.AppendUvarint(buf, uint64(s.rule.ord)*2+1)
			} else {
				buf = binary.AppendUvarint(buf, s.term*2)
			}
		}
	}
	return buf
}

// Decoded is a grammar read back from its serialized form: rule bodies by
// serialized index, with index 0 the start rule.
type Decoded struct {
	Rules [][]Sym
}

// ErrCorrupt reports a malformed serialized grammar.
var ErrCorrupt = errors.New("sequitur: corrupt serialized grammar")

// Decode parses the output of Encode.
func Decode(buf []byte) (*Decoded, error) {
	c := codec.NewCursor(buf)
	// Every rule and every symbol costs at least one byte, so Count
	// rejects a rule count or body length beyond the remaining input
	// before it reaches make.
	ruleCount := c.Count(math.MaxUint64)
	d := &Decoded{Rules: make([][]Sym, ruleCount)}
	for i := range d.Rules {
		body := make([]Sym, c.Count(math.MaxUint64))
		for j := range body {
			tag := c.Uvarint()
			if tag&1 == 1 && tag>>1 >= uint64(ruleCount) {
				return nil, fmt.Errorf("%w: rule %d references out-of-range rule %d", ErrCorrupt, i, tag>>1)
			}
			body[j] = Sym{Value: tag >> 1, IsRule: tag&1 == 1}
		}
		d.Rules[i] = body
	}
	if err := c.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return d, nil
}

// Expand regenerates the original sequence from a decoded grammar.
// It returns ErrCorrupt if expansion recurses through a rule cycle.
func (d *Decoded) Expand() ([]uint64, error) {
	return d.ExpandLimit(0)
}

// ExpandLimit is Expand with an output cap: a decoded grammar from an
// untrusted source can be a "zip bomb" (n nested rules expand to 2ⁿ
// symbols), so readers must bound the expansion. max ≤ 0 means unlimited.
func (d *Decoded) ExpandLimit(max int) ([]uint64, error) {
	if len(d.Rules) == 0 {
		return nil, nil
	}
	var out []uint64
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]uint8, len(d.Rules))
	var walk func(idx uint64) error
	walk = func(idx uint64) error {
		if state[idx] == inStack {
			return fmt.Errorf("%w: rule cycle through %d", ErrCorrupt, idx)
		}
		state[idx] = inStack
		for _, s := range d.Rules[idx] {
			if s.IsRule {
				if err := walk(s.Value); err != nil {
					return err
				}
			} else {
				if max > 0 && len(out) >= max {
					return fmt.Errorf("%w: expansion exceeds %d symbols", ErrCorrupt, max)
				}
				out = append(out, s.Value)
			}
		}
		state[idx] = done
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	return out, nil
}
