package sequitur

import (
	"errors"
	"fmt"
	"math"
)

// Grammar faults a live grammar never has. FromSnapshot and
// CheckInvariants report them wrapped, with the rule or digram at fault.
var (
	// ErrStartRuleRef: some rule references the start rule.
	ErrStartRuleRef = errors.New("sequitur: reference to the start rule")
	// ErrUnderusedRule: a rule other than the start rule is used fewer
	// than twice.
	ErrUnderusedRule = errors.New("sequitur: rule used fewer than twice")
	// ErrRuleCycle: rule references form a cycle, so Expand would never
	// return.
	ErrRuleCycle = errors.New("sequitur: rule reference cycle")
	// ErrRepeatedDigram: a digram occurs twice other than as the
	// overlapping pair inside a run of equal symbols.
	ErrRepeatedDigram = errors.New("sequitur: repeated digram")
	// ErrInputMismatch: the recorded input length is not the number of
	// terminals the start rule expands to.
	ErrInputMismatch = errors.New("sequitur: input length does not match the expansion")
)

// CheckInvariants verifies the two Sequitur invariants plus internal
// bookkeeping consistency, returning a descriptive error for the first
// violation found. Intended for tests; it walks the whole grammar.
//
// Digram uniqueness is checked in its precise form: no digram value may
// occur at two non-overlapping positions. Overlapping occurrences inside a
// run of identical symbols (as in "aaa") are permitted, exactly as in the
// reference algorithm.
//
// Rule references must form a DAG that never reaches back to the start
// rule; otherwise Expand would recurse forever.
func (g *Grammar) CheckInvariants() error {
	type pos struct {
		rule uint32
		idx  int
	}
	seen := make(map[digram]pos)
	refs := make(map[uint32]int)

	for id, r := range g.rules {
		if r.ID != id {
			return fmt.Errorf("sequitur: rule map key %d != rule ID %d", id, r.ID)
		}
		if !r.guard.guard || r.guard.rule != r {
			return fmt.Errorf("sequitur: rule %d has a corrupt guard", id)
		}
		i := 0
		for s := r.first(); !s.guard; s = s.next {
			if s.next.prev != s || s.prev.next != s {
				return fmt.Errorf("sequitur: rule %d has corrupt links at index %d", id, i)
			}
			if s.rule != nil {
				if _, ok := g.rules[s.rule.ID]; !ok {
					return fmt.Errorf("sequitur: rule %d references dead rule %d", id, s.rule.ID)
				}
				refs[s.rule.ID]++
			}
			if !s.next.guard {
				k := key(s)
				if prev, dup := seen[k]; dup {
					overlapping := prev.rule == id && prev.idx == i-1 && sameValue(s.prev, s)
					if !overlapping {
						return fmt.Errorf("%w: %v occurs at rule %d idx %d and rule %d idx %d",
							ErrRepeatedDigram, k, prev.rule, prev.idx, id, i)
					}
				} else {
					seen[k] = pos{rule: id, idx: i}
				}
			}
			i++
		}
	}

	for id, r := range g.rules {
		if id == g.start.ID {
			continue
		}
		actual := refs[id]
		if actual < 2 {
			return fmt.Errorf("%w: rule %d used %d time(s); rule utility requires >= 2", ErrUnderusedRule, id, actual)
		}
		if actual != r.refs {
			return fmt.Errorf("sequitur: rule %d stored refcount %d != actual %d", id, r.refs, actual)
		}
	}
	if n := refs[g.start.ID]; n != 0 {
		return fmt.Errorf("%w: used %d time(s)", ErrStartRuleRef, n)
	}
	ids := g.RuleIDs()
	rules := make([]*Rule, len(ids))
	for i, id := range ids {
		rules[i] = g.rules[id]
		rules[i].ord = uint32(i)
	}
	if _, err := acyclic(rules); err != nil {
		return err
	}

	// The incremental symbol count backing Footprint must agree with a
	// full walk.
	if n := g.Symbols(); n != g.symCount {
		return fmt.Errorf("sequitur: incremental symbol count %d != walked count %d", g.symCount, n)
	}

	// The digram index must point at live, correctly keyed occurrences.
	for k, s := range g.digrams {
		if s.next == nil || s.prev == nil {
			return fmt.Errorf("sequitur: digram index entry %v points at an unlinked symbol", k)
		}
		if s.guard || s.next.guard {
			return fmt.Errorf("sequitur: digram index entry %v points at a guard adjacency", k)
		}
		if key(s) != k {
			return fmt.Errorf("sequitur: digram index entry %v keyed wrong (actual %v)", k, key(s))
		}
	}
	return nil
}

// acyclic checks that the rule references form a DAG whose only root is
// the unreferenced rules, by Kahn's algorithm over the reference counts:
// no recursion, O(symbols + rules) time. rules[i].ord must be i, and every
// refs count exact. It returns the rules in topological order: every rule
// before the rules it references.
func acyclic(rules []*Rule) ([]*Rule, error) {
	pending := make([]int, len(rules))
	queue := make([]*Rule, 0, len(rules))
	for i, r := range rules {
		pending[i] = r.refs
		if r.refs == 0 {
			queue = append(queue, r)
		}
	}
	for n := 0; n < len(queue); n++ {
		for s := queue[n].first(); !s.guard; s = s.next {
			if s.rule == nil {
				continue
			}
			o := s.rule.ord
			pending[o]--
			if pending[o] == 0 {
				queue = append(queue, s.rule)
			}
		}
	}
	if len(queue) == len(rules) {
		return queue, nil
	}
	// Every rule left over is on a cycle or reachable only through one.
	for i, r := range rules {
		if pending[i] > 0 {
			return nil, fmt.Errorf("%w: rule %d is on or below a cycle", ErrRuleCycle, r.ID)
		}
	}
	return queue, nil
}

// expansionLen returns how many terminals rule r expands to, saturating at
// the largest uint64. order is acyclic's topological order, so walking it
// backwards sizes every rule after the rules it references: one pass over
// the bodies.
func expansionLen(order []*Rule, r *Rule) uint64 {
	n := make([]uint64, len(order)) // by Rule.ord
	for i := len(order) - 1; i >= 0; i-- {
		var total uint64
		for s := order[i].first(); !s.guard; s = s.next {
			add := uint64(1)
			if s.rule != nil {
				add = n[s.rule.ord]
			}
			if total += add; total < add {
				total = math.MaxUint64
			}
		}
		n[order[i].ord] = total
	}
	return n[r.ord]
}
