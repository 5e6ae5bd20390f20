// Package sequitur implements the Sequitur compression scheme of
// Nevill-Manning and Witten ("Identifying hierarchical structure in
// sequences: a linear-time algorithm", JAIR 1997), which WHOMP uses to
// compress the decomposed object-relative streams (§3.1).
//
// Sequitur encodes a symbol stream as a context-free grammar built
// incrementally under two invariants:
//
//	digram uniqueness: no pair of adjacent symbols appears more than once
//	                   (at non-overlapping positions) in the grammar;
//	rule utility:      every rule other than the start rule is used at
//	                   least twice.
//
// Each repetition of a digram gives rise to a rule, and repeated
// subsequences are replaced by non-terminals, e.g. "abcbcabcbc" compresses
// to S → AA; A → aBB; B → bc.
//
// The implementation follows the authors' classic linked-list formulation,
// including the digram-index repair for runs of equal symbols ("triples").
//
// A Grammar is not safe for concurrent use, and its construction is
// inherently sequential in its input (each Append depends on the digram
// index the previous appends built); the parallel WHOMP pipeline therefore
// parallelizes across grammars — one per decomposed dimension — never
// within one.
package sequitur

import (
	"fmt"
	"slices"
)

// symbol is one element of a rule body: either a terminal value or a
// non-terminal reference to a rule. Each rule body is a circular
// doubly-linked list closed by a guard symbol.
type symbol struct {
	next, prev *symbol
	term       uint64
	rule       *Rule // non-terminal reference; for guards, the owning rule
	guard      bool
}

// Rule is one grammar rule. Its body is the circular list hanging off the
// guard.
type Rule struct {
	ID uint32
	// ord is scratch for the whole-grammar walks that index rules densely
	// (Encode, EncodedSize, FromSnapshot, CheckInvariants): the rule's
	// position in the walk's rule list. It is meaningless outside such a
	// walk — one reason even those read-only-looking methods must not run
	// concurrently — and it sits in what would otherwise be padding, so it
	// costs no memory.
	ord   uint32
	guard *symbol
	refs  int
}

func (r *Rule) first() *symbol { return r.guard.next }
func (r *Rule) last() *symbol  { return r.guard.prev }

// Len reports the number of symbols in the rule body.
func (r *Rule) Len() int {
	n := 0
	for s := r.first(); !s.guard; s = s.next {
		n++
	}
	return n
}

// digram identifies the value pair of two adjacent symbols. Terminals and
// non-terminals live in disjoint key spaces.
type digram struct {
	a, b         uint64
	aRule, bRule bool
}

func value(s *symbol) (uint64, bool) {
	if s.rule != nil {
		return uint64(s.rule.ID), true
	}
	return s.term, false
}

func sameValue(a, b *symbol) bool {
	av, ar := value(a)
	bv, br := value(b)
	return av == bv && ar == br
}

// Grammar is an incrementally built Sequitur grammar. The zero value is not
// usable; create with New.
type Grammar struct {
	start   *Rule
	rules   map[uint32]*Rule
	digrams map[digram]*symbol
	nextID  uint32
	input   uint64 // terminals appended so far
	// symCount tracks the live body symbols (== Symbols(), maintained
	// incrementally so Footprint never walks the grammar).
	symCount int
}

// New returns an empty grammar.
func New() *Grammar {
	g := &Grammar{
		rules:   make(map[uint32]*Rule),
		digrams: make(map[digram]*symbol),
	}
	g.start = g.newRule()
	return g
}

func (g *Grammar) newRule() *Rule {
	r := &Rule{ID: g.nextID}
	g.nextID++
	guard := &symbol{rule: r, guard: true}
	guard.next, guard.prev = guard, guard
	r.guard = guard
	g.rules[r.ID] = r
	return r
}

// key returns the digram key for (s, s.next). Only valid when neither is a
// guard.
func key(s *symbol) digram {
	av, ar := value(s)
	bv, br := value(s.next)
	return digram{a: av, b: bv, aRule: ar, bRule: br}
}

// setDigram indexes the digram starting at s, overwriting any existing
// entry. No-op if s's digram involves a guard.
func (g *Grammar) setDigram(s *symbol) {
	if s == nil || s.guard || s.next == nil || s.next.guard {
		return
	}
	g.digrams[key(s)] = s
}

// deleteDigram removes the index entry for the digram starting at s, if s is
// the indexed occurrence.
func (g *Grammar) deleteDigram(s *symbol) {
	if s.guard || s.next == nil || s.next.guard {
		return
	}
	k := key(s)
	if g.digrams[k] == s {
		delete(g.digrams, k)
	}
}

// join links left→right, cleaning up the digram that previously started at
// left and repairing the index for runs of identical symbols (the classic
// implementation's "triples" fix-up).
func (g *Grammar) join(left, right *symbol) {
	if left.next != nil {
		g.deleteDigram(left)

		if right.prev != nil && right.next != nil &&
			sameValue(right, right.prev) && sameValue(right, right.next) {
			g.setDigram(right)
		}
		if left.prev != nil && left.next != nil &&
			sameValue(left, left.prev) && sameValue(left, left.next) {
			g.setDigram(left.prev)
		}
	}
	left.next = right
	right.prev = left
}

// insertAfter splices fresh symbol y immediately after s.
func (g *Grammar) insertAfter(s, y *symbol) {
	g.join(y, s.next)
	g.join(s, y)
}

// destroy unlinks s from its rule, cleaning up digrams and the refcount of a
// non-terminal's rule.
func (g *Grammar) destroy(s *symbol) {
	g.join(s.prev, s.next)
	if !s.guard {
		g.deleteDigram(s)
		if s.rule != nil {
			s.rule.refs--
		}
		g.symCount--
	}
	s.next, s.prev = nil, nil
}

// check enforces digram uniqueness for the digram starting at s. It reports
// whether the grammar changed.
func (g *Grammar) check(s *symbol) bool {
	if s.guard || s.next.guard {
		return false
	}
	k := key(s)
	x, ok := g.digrams[k]
	if !ok {
		g.digrams[k] = s
		return false
	}
	if x == s {
		return false
	}
	if x.next != s && s.next != x { // non-overlapping occurrence
		g.match(s, x)
		return true
	}
	return false
}

func (g *Grammar) copySym(s *symbol) *symbol {
	n := &symbol{term: s.term, rule: s.rule}
	if n.rule != nil {
		n.rule.refs++
	}
	g.symCount++
	return n
}

// match handles a repeated digram: s is the new occurrence, m the indexed
// one. If m is exactly a rule's whole body, reuse that rule; otherwise mint a
// new rule from the digram and substitute both occurrences.
func (g *Grammar) match(s, m *symbol) {
	var r *Rule
	if m.prev.guard && m.next.next.guard {
		r = m.prev.rule
		g.substitute(s, r)
	} else {
		r = g.newRule()
		g.insertAfter(r.last(), g.copySym(s))
		g.insertAfter(r.last(), g.copySym(s.next))
		g.substitute(m, r)
		g.substitute(s, r)
		g.setDigram(r.first())
	}
	// Rule utility: if the new rule's body begins with a non-terminal whose
	// rule is now used only once, inline it.
	if f := r.first(); !f.guard && f.rule != nil && f.rule.refs == 1 {
		g.expand(f)
	}
}

// substitute replaces the digram starting at s with a non-terminal referring
// to r, then re-checks the two adjacencies this creates.
func (g *Grammar) substitute(s *symbol, r *Rule) {
	q := s.prev
	g.destroy(q.next)
	g.destroy(q.next)
	n := &symbol{rule: r}
	r.refs++
	g.symCount++
	g.insertAfter(q, n)
	if !g.check(q) {
		g.check(n)
	}
}

// expand inlines the body of s's rule in place of s. Called when the rule's
// reference count has dropped to one (rule utility).
func (g *Grammar) expand(s *symbol) {
	left, right := s.prev, s.next
	r := s.rule
	f, l := r.first(), r.last()

	g.deleteDigram(s)
	g.join(left, right) // unlink s (also removes digram (left, s))
	g.symCount--        // s dies here without going through destroy
	delete(g.rules, r.ID)

	g.join(left, f)
	g.join(l, right)
	g.setDigram(l)
}

// Append feeds the next terminal of the input stream into the grammar.
func (g *Grammar) Append(v uint64) {
	g.input++
	s := &symbol{term: v}
	g.symCount++
	g.insertAfter(g.start.last(), s)
	g.check(s.prev)
}

// AppendAll feeds a whole sequence.
func (g *Grammar) AppendAll(vs []uint64) {
	for _, v := range vs {
		g.Append(v)
	}
}

// InputLen reports how many terminals have been appended.
func (g *Grammar) InputLen() uint64 { return g.input }

// NumRules reports the number of rules, including the start rule.
func (g *Grammar) NumRules() int { return len(g.rules) }

// Symbols reports the total number of symbols on the right-hand sides of all
// rules — the standard Sequitur grammar-size metric the paper's compression
// comparison uses.
func (g *Grammar) Symbols() int {
	n := 0
	for _, r := range g.rules {
		n += r.Len()
	}
	return n
}

// Expand regenerates the original input sequence from the grammar, proving
// losslessness.
func (g *Grammar) Expand() []uint64 {
	out := make([]uint64, 0, g.input)
	var walk func(r *Rule)
	walk = func(r *Rule) {
		for s := r.first(); !s.guard; s = s.next {
			if s.rule != nil {
				walk(s.rule)
			} else {
				out = append(out, s.term)
			}
		}
	}
	walk(g.start)
	return out
}

// Sym is the exported view of one grammar symbol.
type Sym struct {
	Value  uint64 // terminal value, or rule ID when IsRule
	IsRule bool
}

// RuleBody returns the body of rule id as exported symbols. ok is false for
// unknown rules.
func (g *Grammar) RuleBody(id uint32) ([]Sym, bool) {
	r, ok := g.rules[id]
	if !ok {
		return nil, false
	}
	body := make([]Sym, 0, 8)
	for s := r.first(); !s.guard; s = s.next {
		v, isRule := value(s)
		body = append(body, Sym{Value: v, IsRule: isRule})
	}
	return body, true
}

// RuleIDs returns all rule IDs in ascending order; the start rule is always
// ID 0.
func (g *Grammar) RuleIDs() []uint32 {
	ids := make([]uint32, 0, len(g.rules))
	for id := range g.rules {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// RuleUses reports how many times rule id is referenced (0 for the start
// rule).
func (g *Grammar) RuleUses(id uint32) int {
	r, ok := g.rules[id]
	if !ok {
		return 0
	}
	return r.refs
}

// String renders the grammar in the paper's "S → AA; A → aBB; B → bc" style
// with numeric IDs: rule 0 is S.
func (g *Grammar) String() string {
	out := ""
	for _, id := range g.RuleIDs() {
		body, _ := g.RuleBody(id)
		if out != "" {
			out += "; "
		}
		out += fmt.Sprintf("R%d →", id)
		for _, s := range body {
			if s.IsRule {
				out += fmt.Sprintf(" R%d", s.Value)
			} else {
				out += fmt.Sprintf(" %d", s.Value)
			}
		}
	}
	return out
}
