package sequitur

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func fromString(s string) []uint64 {
	out := make([]uint64, len(s))
	for i := range s {
		out[i] = uint64(s[i])
	}
	return out
}

func buildAndVerify(t *testing.T, input []uint64) *Grammar {
	t.Helper()
	g := New()
	g.AppendAll(input)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated for input %v: %v", input, err)
	}
	got := g.Expand()
	if len(got) == 0 && len(input) == 0 {
		return g
	}
	if !reflect.DeepEqual(got, input) {
		t.Fatalf("round trip failed:\n input: %v\noutput: %v\ngrammar: %s", input, got, g)
	}
	return g
}

func TestPaperExample(t *testing.T) {
	// The paper's §3.1 example: "abcbcabcbc" compresses to
	// S → AA; A → aBB; B → bc — two extra rules, 7 body symbols total.
	g := buildAndVerify(t, fromString("abcbcabcbc"))
	if g.NumRules() != 3 {
		t.Errorf("NumRules = %d, want 3 (S, A, B); grammar: %s", g.NumRules(), g)
	}
	if g.Symbols() != 7 {
		t.Errorf("Symbols = %d, want 7; grammar: %s", g.Symbols(), g)
	}
}

func TestEmptyAndTiny(t *testing.T) {
	for _, in := range [][]uint64{
		{},
		{42},
		{1, 2},
		{1, 1},
		{1, 2, 3},
	} {
		g := buildAndVerify(t, in)
		if got := g.InputLen(); got != uint64(len(in)) {
			t.Errorf("InputLen = %d, want %d", got, len(in))
		}
	}
}

func TestRuns(t *testing.T) {
	// Runs of identical symbols exercise the overlapping-digram handling
	// and the "triples" index repair.
	for n := 1; n <= 40; n++ {
		in := make([]uint64, n)
		for i := range in {
			in[i] = 7
		}
		buildAndVerify(t, in)
	}
}

func TestRunsMixed(t *testing.T) {
	cases := []string{
		"aaabaaab",
		"abbbabcbb", // the sequence from the classic implementation's comment
		"aaaa",
		"aabaaab",
		"abababab",
		"aabbaabb",
		"abcabcabcabc",
		"xyxyxzxyxyxz",
		"mississippi",
		"aaabbbaaabbb",
	}
	for _, c := range cases {
		buildAndVerify(t, fromString(c))
	}
}

func TestRuleReuse(t *testing.T) {
	// "abab" must produce exactly one rule for "ab" reused twice.
	g := buildAndVerify(t, fromString("abab"))
	if g.NumRules() != 2 {
		t.Fatalf("NumRules = %d, want 2; grammar: %s", g.NumRules(), g)
	}
	for _, id := range g.RuleIDs() {
		if id == 0 {
			continue
		}
		if uses := g.RuleUses(id); uses != 2 {
			t.Errorf("rule %d used %d times, want 2", id, uses)
		}
	}
}

func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		alphabet := 1 + rng.Intn(8) // small alphabets force heavy repetition
		in := make([]uint64, n)
		for i := range in {
			in[i] = uint64(rng.Intn(alphabet))
		}
		buildAndVerify(t, in)
	}
}

func TestStructuredRoundTrip(t *testing.T) {
	// Loop-like streams: the shape memory traces actually have.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		var in []uint64
		for block := 0; block < 5; block++ {
			pat := make([]uint64, 1+rng.Intn(6))
			for i := range pat {
				pat[i] = uint64(rng.Intn(10))
			}
			reps := 1 + rng.Intn(20)
			for r := 0; r < reps; r++ {
				in = append(in, pat...)
			}
		}
		g := buildAndVerify(t, in)
		if len(in) > 60 && g.Symbols() >= len(in) {
			t.Errorf("no compression on highly repetitive input: %d symbols for %d terminals", g.Symbols(), len(in))
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(bytes []byte) bool {
		in := make([]uint64, len(bytes))
		for i, b := range bytes {
			in[i] = uint64(b % 5)
		}
		g := New()
		g.AppendAll(in)
		if err := g.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		out := g.Expand()
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300)
		in := make([]uint64, n)
		for i := range in {
			// Mix small and large values to exercise varint widths.
			// Terminals are capped at 63 bits (see encode.go).
			if rng.Intn(4) == 0 {
				in[i] = rng.Uint64() >> uint(1+rng.Intn(40))
			} else {
				in[i] = uint64(rng.Intn(6))
			}
		}
		g := New()
		g.AppendAll(in)
		buf := g.Encode()
		if len(buf) != g.EncodedSize() {
			t.Fatalf("EncodedSize = %d, len(Encode) = %d", g.EncodedSize(), len(buf))
		}
		d, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		out, err := d.Expand()
		if err != nil {
			t.Fatalf("Expand: %v", err)
		}
		if len(in) == 0 && len(out) == 0 {
			continue
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("encode/decode round trip failed (n=%d)", n)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	g := New()
	g.AppendAll(fromString("abcbcabcbc"))
	buf := g.Encode()

	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) should fail")
	}
	if _, err := Decode(buf[:len(buf)-1]); err == nil {
		t.Error("Decode(truncated) should fail")
	}
	if _, err := Decode(append(append([]byte{}, buf...), 0x00)); err == nil {
		t.Error("Decode(trailing bytes) should fail")
	}
	// A grammar whose rule references itself must be rejected at expansion.
	selfRef := []byte{1, 1, 1} // 1 rule, body length 1, symbol tag 1 => rule ref 0
	d, err := Decode(selfRef)
	if err != nil {
		t.Fatalf("Decode(selfRef): %v", err)
	}
	if _, err := d.Expand(); err == nil {
		t.Error("Expand of cyclic grammar should fail")
	}
	// One rule holding terminal 1, then the same grammar with its rule
	// count in a padded (non-minimal) two-byte form.
	if _, err := Decode([]byte{1, 1, 2}); err != nil {
		t.Fatalf("Decode(minimal): %v", err)
	}
	if _, err := Decode([]byte{0x81, 0x00, 1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decode(padded varint) = %v, want ErrCorrupt", err)
	}
}

func TestCompressionOnRepetitive(t *testing.T) {
	// A long strided pattern — like an offset stream from a loop — must
	// compress dramatically.
	in := make([]uint64, 0, 4096)
	for i := 0; i < 1024; i++ {
		in = append(in, 0, 8, 16, 24)
	}
	g := buildAndVerify(t, in)
	if g.Symbols() > 64 {
		t.Errorf("repetitive stream compressed to %d symbols, want <= 64", g.Symbols())
	}
}

func TestStringRendering(t *testing.T) {
	g := New()
	g.AppendAll(fromString("abab"))
	s := g.String()
	if s == "" {
		t.Fatal("String() returned empty grammar rendering")
	}
}

func BenchmarkAppendRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := make([]uint64, 1<<16)
	for i := range in {
		in[i] = uint64(rng.Intn(64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New()
		g.AppendAll(in)
	}
	b.ReportMetric(float64(len(in)), "symbols/op")
}

func BenchmarkAppendRepetitive(b *testing.B) {
	in := make([]uint64, 0, 1<<16)
	for i := 0; len(in) < 1<<16; i++ {
		in = append(in, 1, 2, 3, 4, 5, 6, 7, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New()
		g.AppendAll(in)
	}
	b.ReportMetric(float64(len(in)), "symbols/op")
}
