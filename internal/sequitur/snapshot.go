package sequitur

import (
	"errors"
	"fmt"
)

// This file implements exact grammar snapshots: an exported, pure-data view
// of every piece of mutable Grammar state, sufficient to reconstruct a
// grammar that behaves identically to the original under all future
// Appends. Snapshots are what make a long-running profiling session
// checkpointable (internal/checkpoint): grammar construction is
// incremental and history-dependent, so resuming a session mid-stream
// requires more than the rules — it requires the digram index, whose
// entries record *which occurrence* of each digram is canonical, and the
// nextID counter, which outlives deleted rules.
//
// Cost: Snapshot and FromSnapshot are linear in the grammar's size (body
// symbols plus rules) apart from one sort of the rule IDs, like the
// Sequitur construction they checkpoint. FromSnapshot's symbol-sized
// scratch is one flat []*symbol, indexed by per-rule offsets, that turns
// each DigramRef into an index lookup, and a side map for digrams missing
// from the index, which stays empty for a snapshot of a live grammar
// (every digram it holds is indexed). Both are dropped when FromSnapshot
// returns.

// SnapshotRule is the exported body of one rule.
type SnapshotRule struct {
	ID   uint32
	Body []Sym
}

// DigramRef locates one indexed digram occurrence: the digram starting at
// symbol Pos (0-based) of rule Rule's body.
type DigramRef struct {
	Rule uint32
	Pos  uint32
}

// Snapshot is the complete mutable state of a Grammar at one instant.
// It contains no pointers into the live grammar; mutating the grammar
// after Snapshot does not affect it.
type Snapshot struct {
	// NextID is the next rule ID to be minted (rule IDs are never reused,
	// so this can exceed the largest live rule ID).
	NextID uint32
	// Input is the number of terminals appended so far.
	Input uint64
	// Rules holds every live rule in ascending ID order; the start rule
	// (ID 0) is always first.
	Rules []SnapshotRule
	// Digrams locates the canonical occurrence of every indexed digram,
	// sorted by (Rule, Pos) for deterministic serialization.
	Digrams []DigramRef
}

// Snapshot captures the grammar's complete state. It fails only if the
// internal invariants are broken (a digram index entry pointing at an
// unlinked symbol, or keyed by a digram its symbol no longer starts),
// which would make any snapshot unsound.
func (g *Grammar) Snapshot() (*Snapshot, error) {
	ids := g.RuleIDs()
	snap := &Snapshot{
		NextID:  g.nextID,
		Input:   g.input,
		Rules:   make([]SnapshotRule, 0, len(ids)),
		Digrams: make([]DigramRef, 0, len(g.digrams)),
	}
	// One backing array holds every body; each body is capped so that an
	// append to it can never write into the next.
	syms := make([]Sym, 0, g.symCount)
	// Walking the bodies in rule-ID, then position order emits the
	// canonical digram occurrences already sorted by (Rule, Pos).
	for _, id := range ids {
		from := len(syms)
		pos := uint32(0)
		for s := g.rules[id].first(); !s.guard; s = s.next {
			v, isRule := value(s)
			syms = append(syms, Sym{Value: v, IsRule: isRule})
			if !s.next.guard && g.digrams[key(s)] == s {
				snap.Digrams = append(snap.Digrams, DigramRef{Rule: id, Pos: pos})
			}
			pos++
		}
		snap.Rules = append(snap.Rules, SnapshotRule{ID: id, Body: syms[from:len(syms):len(syms)]})
	}
	// Every ref emitted is the target of a distinct index entry, so equal
	// counts mean every entry is a linked, correctly keyed occurrence.
	if len(snap.Digrams) != len(g.digrams) {
		return nil, g.digramIndexError()
	}
	return snap, nil
}

// digramIndexError names an index entry that Snapshot's walk did not
// reach. It runs only once the index is known to be broken, so it can
// afford a set of every linked symbol.
func (g *Grammar) digramIndexError() error {
	linked := make(map[*symbol]bool, g.symCount)
	for _, r := range g.rules {
		for s := r.first(); !s.guard; s = s.next {
			linked[s] = true
		}
	}
	for k, s := range g.digrams {
		switch {
		case !linked[s]:
			return fmt.Errorf("sequitur: digram index entry %v points at an unlinked symbol", k)
		case s.next.guard:
			return fmt.Errorf("sequitur: digram index entry %v points at a guard adjacency", k)
		case key(s) != k:
			return fmt.Errorf("sequitur: digram index entry %v is stale (symbol now keys %v)", k, key(s))
		}
	}
	return errors.New("sequitur: digram index disagrees with the rule bodies")
}

// FromSnapshot reconstructs a grammar from a snapshot. The result is
// behaviorally identical to the snapshotted grammar: the same rules, the
// same canonical digram occurrences, the same ID counter — so any sequence
// of future Appends produces exactly the grammar the original would have.
//
// A snapshot that could not have come from a live grammar is an error: a
// structural fault (missing, duplicate or out-of-range rules and digram
// refs), a reference to the start rule (ErrStartRuleRef), a rule used
// fewer than twice (ErrUnderusedRule), a reference cycle (ErrRuleCycle) or
// a repeated digram (ErrRepeatedDigram). A grammar FromSnapshot returns
// therefore passes CheckInvariants, and its Expand terminates.
func FromSnapshot(snap *Snapshot) (*Grammar, error) {
	g := &Grammar{
		rules:   make(map[uint32]*Rule, len(snap.Rules)),
		digrams: make(map[digram]*symbol, len(snap.Digrams)),
		nextID:  snap.NextID,
		input:   snap.Input,
	}
	// Pass 1: create every rule's shell so non-terminal references resolve
	// regardless of rule order, and lay the bodies out in one flat symbol
	// table: symbol p of rules[i] will be flat[offs[i]+p].
	rules := make([]*Rule, len(snap.Rules))
	offs := make([]int, len(snap.Rules)+1)
	for i, sr := range snap.Rules {
		if _, dup := g.rules[sr.ID]; dup {
			return nil, fmt.Errorf("sequitur: snapshot has duplicate rule %d", sr.ID)
		}
		if sr.ID >= snap.NextID {
			return nil, fmt.Errorf("sequitur: rule %d not below NextID %d", sr.ID, snap.NextID)
		}
		r := &Rule{ID: sr.ID, ord: uint32(i)}
		guard := &symbol{rule: r, guard: true}
		guard.next, guard.prev = guard, guard
		r.guard = guard
		g.rules[sr.ID] = r
		rules[i] = r
		offs[i+1] = offs[i] + len(sr.Body)
	}
	start, ok := g.rules[0]
	if !ok {
		return nil, fmt.Errorf("sequitur: snapshot has no start rule (ID 0)")
	}
	g.start = start
	// Pass 2: fill bodies with raw pointer surgery — no digram maintenance,
	// the index is restored verbatim below.
	flat := make([]*symbol, offs[len(rules)])
	g.symCount = len(flat)
	for i, sr := range snap.Rules {
		r := rules[i]
		last := r.guard
		for p, sym := range sr.Body {
			s := &symbol{}
			if sym.IsRule {
				ref, ok := g.rules[uint32(sym.Value)]
				if !ok {
					return nil, fmt.Errorf("sequitur: rule %d references missing rule %d", sr.ID, sym.Value)
				}
				if sym.Value > uint64(^uint32(0)) {
					return nil, fmt.Errorf("sequitur: rule reference %d overflows uint32", sym.Value)
				}
				if ref == start {
					return nil, fmt.Errorf("%w: rule %d", ErrStartRuleRef, sr.ID)
				}
				s.rule = ref
				ref.refs++
			} else {
				s.term = sym.Value
			}
			last.next, s.prev = s, last
			last = s
			flat[offs[i]+p] = s
		}
		last.next, r.guard.prev = r.guard, last
	}
	// Expand recurses through rule references, so they must form a DAG
	// under the start rule, every other rule used at least twice.
	for _, r := range rules {
		if r != start && r.refs < 2 {
			return nil, fmt.Errorf("%w: rule %d used %d time(s)", ErrUnderusedRule, r.ID, r.refs)
		}
	}
	if err := acyclic(rules); err != nil {
		return nil, err
	}
	// Pass 3: restore the digram index positionally.
	for _, ref := range snap.Digrams {
		r, ok := g.rules[ref.Rule]
		if !ok {
			return nil, fmt.Errorf("sequitur: digram ref names missing rule %d", ref.Rule)
		}
		// The digram needs symbols Pos and Pos+1 of the body.
		i := r.ord
		if uint64(ref.Pos)+1 >= uint64(offs[i+1]-offs[i]) {
			return nil, fmt.Errorf("sequitur: digram ref (%d, %d) out of range", ref.Rule, ref.Pos)
		}
		s := flat[offs[i]+int(ref.Pos)]
		k := key(s)
		if _, dup := g.digrams[k]; dup {
			return nil, fmt.Errorf("sequitur: duplicate digram index entry at (%d, %d)", ref.Rule, ref.Pos)
		}
		g.digrams[k] = s
	}
	// Digram uniqueness over every adjacency. In a live grammar the index
	// names one occurrence of every digram, so it doubles as the seen-set;
	// digrams it lacks go into a side map.
	var unindexed map[digram]*symbol
	for i, r := range rules {
		for j := offs[i]; j < offs[i+1]-1; j++ {
			s := flat[j]
			k := key(s)
			x, ok := g.digrams[k]
			if !ok {
				if x, ok = unindexed[k]; !ok {
					if unindexed == nil {
						unindexed = make(map[digram]*symbol)
					}
					unindexed[k] = s
					continue
				}
			}
			if x != s && !overlapOnly(x, s, k) {
				return nil, fmt.Errorf("%w: %v at rule %d index %d", ErrRepeatedDigram, k, r.ID, j-offs[i])
			}
		}
	}
	return g, nil
}

// overlapOnly reports whether s, a second occurrence of digram k whose
// other occurrence is x, is allowed: only as the overlapping pair inside a
// run of three equal symbols ("aaa"), and only if no third occurrence
// flanks x.
func overlapOnly(x, s *symbol, k digram) bool {
	switch s {
	case x.next:
		return x.prev.guard || key(x.prev) != k
	case x.prev:
		return x.next.next.guard || key(x.next) != k
	}
	return false
}
