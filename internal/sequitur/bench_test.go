package sequitur

import (
	"fmt"
	"math/rand"
	"testing"
)

// Scaling benchmarks for the three whole-grammar walks a checkpoint or a
// profile write performs. Each runs at two input sizes a decade apart and
// reports ns/symbol (per grammar body symbol): a linear walk reads about the
// same at both sizes, a quadratic one about 10× more at the larger. Compare
// runs with benchstat; nothing here asserts a timing.

var benchSizes = []int{25_000, 250_000}

// repeatNoise returns n terminals alternating between repeats of a few
// dozen fixed phrases (which Sequitur folds into rules) and uniform noise
// (which stays in a long start rule) — the shape of a real OMSG dimension.
func repeatNoise(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	phrases := make([][]uint64, 48)
	for i := range phrases {
		p := make([]uint64, 4+rng.Intn(28))
		for j := range p {
			p[j] = uint64(rng.Intn(256))
		}
		phrases[i] = p
	}
	out := make([]uint64, 0, n+32)
	for len(out) < n {
		if rng.Intn(2) == 0 {
			out = append(out, phrases[rng.Intn(len(phrases))]...)
		} else {
			for k := 1 + rng.Intn(8); k > 0; k-- {
				out = append(out, uint64(256+rng.Intn(4096)))
			}
		}
	}
	return out[:n]
}

func benchGrammar(b *testing.B, n int) *Grammar {
	b.Helper()
	g := New()
	g.AppendAll(repeatNoise(n))
	return g
}

func reportPerSymbol(b *testing.B, g *Grammar) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Symbols()), "ns/symbol")
}

var (
	benchSnapSink *Snapshot
	benchGramSink *Grammar
	benchEncSink  []byte
)

func BenchmarkGrammarSnapshot(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("in=%d", n), func(b *testing.B) {
			g := benchGrammar(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := g.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				benchSnapSink = s
			}
			reportPerSymbol(b, g)
		})
	}
}

func BenchmarkGrammarFromSnapshot(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("in=%d", n), func(b *testing.B) {
			g := benchGrammar(b, n)
			snap, err := g.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := FromSnapshot(snap)
				if err != nil {
					b.Fatal(err)
				}
				benchGramSink = r
			}
			reportPerSymbol(b, g)
		})
	}
}

func BenchmarkGrammarEncode(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("in=%d", n), func(b *testing.B) {
			g := benchGrammar(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchEncSink = g.Encode()
			}
			reportPerSymbol(b, g)
		})
	}
}
