package sequitur

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// streams returns a spread of symbol streams chosen to exercise every
// grammar mechanism: repeats (rule creation), runs of equal symbols (the
// triples fix-up), rule reuse, rule inlining (utility), and plain noise.
func snapshotStreams() map[string][]uint64 {
	rng := rand.New(rand.NewSource(7))
	noise := make([]uint64, 4000)
	for i := range noise {
		noise[i] = uint64(rng.Intn(50))
	}
	runs := make([]uint64, 2000)
	for i := range runs {
		runs[i] = uint64(i / 37 % 3)
	}
	period := make([]uint64, 3000)
	for i := range period {
		period[i] = uint64(i % 17)
	}
	mixed := append(append(append([]uint64{}, period[:800]...), noise[:800]...), runs...)
	return map[string][]uint64{
		"noise":    noise,
		"runs":     runs,
		"periodic": period,
		"mixed":    mixed,
	}
}

// TestSnapshotResumeExact is the load-bearing test for checkpointing: a
// grammar restored from a mid-stream snapshot and fed the rest of the input
// must serialize byte-identically to one that saw the whole stream
// uninterrupted — at every cut point tried.
func TestSnapshotResumeExact(t *testing.T) {
	for name, stream := range snapshotStreams() {
		cuts := []int{0, 1, 2, 3, 10, len(stream) / 3, len(stream) / 2, len(stream) - 1, len(stream)}
		for _, cut := range cuts {
			full := New()
			full.AppendAll(stream)

			g := New()
			g.AppendAll(stream[:cut])
			snap, err := g.Snapshot()
			if err != nil {
				t.Fatalf("%s/%d: Snapshot: %v", name, cut, err)
			}
			restored, err := FromSnapshot(snap)
			if err != nil {
				t.Fatalf("%s/%d: FromSnapshot: %v", name, cut, err)
			}
			restored.AppendAll(stream[cut:])

			if got, want := restored.Encode(), full.Encode(); !bytes.Equal(got, want) {
				t.Errorf("%s/%d: resumed grammar differs from uninterrupted one\nresumed: %s\nfull:    %s",
					name, cut, restored, full)
			}
			if got, want := restored.InputLen(), full.InputLen(); got != want {
				t.Errorf("%s/%d: InputLen = %d, want %d", name, cut, got, want)
			}
			if !reflect.DeepEqual(restored.Expand(), full.Expand()) {
				t.Errorf("%s/%d: expansion differs after resume", name, cut)
			}
		}
	}
}

// TestSnapshotRoundTrip: snapshot → restore → snapshot is a fixed point.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, stream := range snapshotStreams() {
		g := New()
		g.AppendAll(stream)
		s1, err := g.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := FromSnapshot(s1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s: restored grammar invariants: %v", name, err)
		}
		s2, err := r.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: snapshot not a fixed point", name)
		}
	}
}

// TestSnapshotIndependent: mutating the grammar after Snapshot must not
// change the snapshot.
func TestSnapshotIndependent(t *testing.T) {
	g := New()
	g.AppendAll([]uint64{1, 2, 1, 2, 3, 1, 2})
	s1, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := *s1
	beforeRules := append([]SnapshotRule(nil), s1.Rules...)
	g.AppendAll([]uint64{9, 9, 9, 9, 1, 2, 1, 2})
	if before.NextID != s1.NextID || before.Input != s1.Input || !reflect.DeepEqual(beforeRules, s1.Rules) {
		t.Error("snapshot aliased live grammar state")
	}
}

// TestFromSnapshotRejectsCorrupt: structurally broken snapshots are typed
// errors, never panics or silently wrong grammars — in particular never a
// grammar whose Expand recurses forever.
func TestFromSnapshotRejectsCorrupt(t *testing.T) {
	mk := func() *Snapshot {
		g := New()
		g.AppendAll([]uint64{1, 2, 1, 2, 1, 2, 3, 4, 3, 4})
		s, err := g.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	term := func(v uint64) Sym { return Sym{Value: v} }
	ref := func(id uint64) Sym { return Sym{Value: id, IsRule: true} }
	// rules replaces the snapshot with one whose rule i has ID i.
	rules := func(bodies ...[]Sym) func(*Snapshot) {
		return func(s *Snapshot) {
			*s = Snapshot{NextID: uint32(len(bodies))}
			for id, body := range bodies {
				s.Rules = append(s.Rules, SnapshotRule{ID: uint32(id), Body: body})
			}
		}
	}
	cases := map[string]struct {
		corrupt func(*Snapshot)
		want    error // nil: any error
	}{
		"no start rule":     {corrupt: func(s *Snapshot) { s.Rules = s.Rules[1:] }},
		"duplicate rule":    {corrupt: func(s *Snapshot) { s.Rules = append(s.Rules, s.Rules[0]) }},
		"dangling rule ref": {corrupt: func(s *Snapshot) { s.Rules[0].Body[0] = Sym{Value: 999, IsRule: true} }},
		"digram oob pos": {corrupt: func(s *Snapshot) {
			s.Digrams = append(s.Digrams, DigramRef{Rule: 0, Pos: 1 << 20})
		}},
		"digram bad rule": {corrupt: func(s *Snapshot) {
			s.Digrams = append(s.Digrams, DigramRef{Rule: 999, Pos: 0})
		}},
		"rule above nextID": {corrupt: func(s *Snapshot) { s.NextID = 0 }},
		"self reference": {
			corrupt: rules([]Sym{ref(1), ref(1)}, []Sym{term(7), ref(1)}),
			want:    ErrRuleCycle,
		},
		"start rule referenced": {
			corrupt: rules([]Sym{ref(1), ref(1)}, []Sym{term(7), ref(0)}),
			want:    ErrStartRuleRef,
		},
		"two-rule cycle": {
			corrupt: rules([]Sym{ref(1), ref(1), ref(2), ref(2)}, []Sym{term(7), ref(2)}, []Sym{term(8), ref(1)}),
			want:    ErrRuleCycle,
		},
		"rule used once": {
			corrupt: rules([]Sym{ref(1), term(9)}, []Sym{term(7), term(8)}),
			want:    ErrUnderusedRule,
		},
		"unused rule": {
			corrupt: rules([]Sym{term(7), term(8)}, []Sym{term(7), term(8)}),
			want:    ErrUnderusedRule,
		},
		"repeated digram": {
			corrupt: rules([]Sym{term(7), term(8), term(9), term(7), term(8)}),
			want:    ErrRepeatedDigram,
		},
		"run of four": {
			corrupt: rules([]Sym{term(7), term(7), term(7), term(7)}),
			want:    ErrRepeatedDigram,
		},
	}
	for name, c := range cases {
		s := mk()
		c.corrupt(s)
		_, err := FromSnapshot(s)
		if err == nil {
			t.Errorf("%s: FromSnapshot accepted a corrupt snapshot", name)
		} else if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

// TestCheckInvariantsReportsCycles: CheckInvariants catches the rule-graph
// faults that would make Expand recurse forever.
func TestCheckInvariantsReportsCycles(t *testing.T) {
	for name, c := range map[string]struct {
		target func(g *Grammar, a *Rule) *Rule
		want   error
	}{
		"self reference":        {func(_ *Grammar, a *Rule) *Rule { return a }, ErrRuleCycle},
		"start rule referenced": {func(g *Grammar, _ *Rule) *Rule { return g.start }, ErrStartRuleRef},
	} {
		// S → A A; A → a b c d
		g := New()
		g.AppendAll([]uint64{1, 2, 3, 4, 1, 2, 3, 4})
		if g.NumRules() != 2 {
			t.Fatalf("grammar %s: want two rules", g)
		}
		a := g.start.first().rule
		f := a.first()
		f.rule = c.target(g, a)
		f.rule.refs++
		if err := g.CheckInvariants(); !errors.Is(err, c.want) {
			t.Errorf("%s: CheckInvariants = %v, want %v", name, err, c.want)
		}
	}
}

// TestSnapshotDigramOrder: Digrams is strictly increasing in (Rule, Pos)
// and names exactly the index's entries.
func TestSnapshotDigramOrder(t *testing.T) {
	for name, stream := range snapshotStreams() {
		g := New()
		g.AppendAll(stream)
		snap, err := g.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(snap.Digrams) != len(g.digrams) {
			t.Fatalf("%s: %d refs for %d index entries", name, len(snap.Digrams), len(g.digrams))
		}
		seen := make(map[*symbol]bool, len(snap.Digrams))
		for i, ref := range snap.Digrams {
			if i > 0 {
				p := snap.Digrams[i-1]
				if p.Rule > ref.Rule || (p.Rule == ref.Rule && p.Pos >= ref.Pos) {
					t.Fatalf("%s: ref %d %v does not follow %v", name, i, ref, p)
				}
			}
			s := g.rules[ref.Rule].first()
			for j := uint32(0); j < ref.Pos; j++ {
				s = s.next
			}
			if g.digrams[key(s)] != s || seen[s] {
				t.Fatalf("%s: ref %v is not an index entry", name, ref)
			}
			seen[s] = true
		}
	}
}

// TestSnapshotReportsBrokenIndex: Snapshot refuses a digram index that no
// longer matches the bodies, rather than writing an unsound checkpoint.
func TestSnapshotReportsBrokenIndex(t *testing.T) {
	for name, corrupt := range map[string]func(g *Grammar){
		"unlinked symbol": func(g *Grammar) {
			s := &symbol{term: 99, next: &symbol{term: 99}}
			g.digrams[key(s)] = s
		},
		"stale key": func(g *Grammar) {
			for k, s := range g.digrams {
				delete(g.digrams, k)
				g.digrams[digram{a: 99, b: 99}] = s
				return
			}
		},
	} {
		g := New()
		g.AppendAll(snapshotStreams()["mixed"])
		corrupt(g)
		if _, err := g.Snapshot(); err == nil {
			t.Errorf("%s: Snapshot accepted a broken digram index", name)
		}
	}
}

// TestFromSnapshotShuffledDigrams: restore does not depend on the order
// of Digrams.
func TestFromSnapshotShuffledDigrams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, stream := range snapshotStreams() {
		g := New()
		g.AppendAll(stream)
		s1, err := g.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shuffled := *s1
		shuffled.Digrams = append([]DigramRef(nil), s1.Digrams...)
		rng.Shuffle(len(shuffled.Digrams), func(i, j int) {
			shuffled.Digrams[i], shuffled.Digrams[j] = shuffled.Digrams[j], shuffled.Digrams[i]
		})
		r, err := FromSnapshot(&shuffled)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(r.Encode(), g.Encode()) {
			t.Errorf("%s: restored grammar encodes differently", name)
		}
		s2, err := r.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: re-snapshot differs", name)
		}
	}
}
