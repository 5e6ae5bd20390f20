// Fieldreorder: consume the offset dimension of a WHOMP profile to find
// fields that are accessed together but laid out apart, and suggest a
// reordering — the §3.2 use case ("a frequently repeated offset sequence,
// say (0, 36)*, … may reveal a field-reordering opportunity to the compiler
// to take advantage of spatial locality").
//
// The instrumented program processes a pool of 128-byte session records
// whose hot pair — id (offset 0) and hitCount (offset 96) — is separated by
// an 88-byte cold payload, so every record visit touches two cache lines
// when one would do.
//
// Run with:
//
//	go run ./examples/fieldreorder
package main

import (
	"fmt"
	"sort"

	"ormprof/internal/cachesim"
	"ormprof/internal/decomp"
	"ormprof/internal/layout"
	"ormprof/internal/memsim"
	"ormprof/internal/omc"
	"ormprof/internal/plan"
	"ormprof/internal/profiler"
	"ormprof/internal/trace"
	"ormprof/internal/whomp"
)

// Session record layout (128 bytes):
//
//	0   id        (8)   hot
//	8   payload   (88)  cold (checksummed rarely)
//	96  hitCount  (8)   hot
//	104 lastSeen  (8)   warm
//	112 pad       (16)
const (
	recSize     = 128
	offID       = 0
	offPayload  = 8
	offHitCount = 96
	offLastSeen = 104
)

const (
	ldID trace.InstrID = iota + 1
	ldHit
	stHit
	stSeen
	ldPayload
)

const sitePool trace.SiteID = 1

const cacheLine = 64

type sessionScan struct{}

func (sessionScan) Name() string { return "sessionscan" }

func (sessionScan) Run(m *memsim.Machine) {
	// 512 records × 128 B = 64 KiB: twice the L1, so the hot loop thrashes
	// under the original layout but fits once the hot fields are packed.
	const nRecs = 512
	pool := m.Alloc(sitePool, nRecs*recSize)
	rec := func(i int) trace.Addr { return pool + trace.Addr(i*recSize) }

	// Hot loop: every lookup touches id then hitCount — offsets 0 and 96,
	// two cache lines apart.
	for round := 0; round < 40; round++ {
		for i := 0; i < nRecs; i++ {
			m.Load(ldID, rec(i)+offID, 8)
			m.Load(ldHit, rec(i)+offHitCount, 8)
			m.Store(stHit, rec(i)+offHitCount, 8)
			if round%8 == 0 {
				m.Store(stSeen, rec(i)+offLastSeen, 8)
			}
		}
	}
	// Cold path: payload checksum, once.
	for i := 0; i < nRecs; i++ {
		for b := 0; b < 88; b += 8 {
			m.Load(ldPayload, rec(i)+offPayload+trace.Addr(b), 8)
		}
	}
	m.Free(pool)
}

func main() {
	buf := &trace.Buffer{}
	memsim.Run(sessionScan{}, buf)

	wp := whomp.New(nil)
	buf.Replay(wp)
	profile := wp.Profile("sessionscan")

	// Count same-object offset digrams from the recomposed tuple stream;
	// normalize offsets to their position within the 128-byte record so
	// all records aggregate.
	recs, _ := profiler.TranslateTrace(buf.Events, nil)
	type pair struct{ a, b uint64 }
	counts := make(map[pair]uint64)
	for i := 1; i < len(recs); i++ {
		p, q := recs[i-1], recs[i]
		if p.Ref.Group != q.Ref.Group || p.Ref.Object != q.Ref.Object || p.Ref.Group == 0 {
			continue
		}
		a, b := p.Ref.Offset%recSize, q.Ref.Offset%recSize
		if a == b {
			continue
		}
		counts[pair{a, b}]++
	}
	type hot struct {
		p pair
		n uint64
	}
	var hots []hot
	for p, n := range counts {
		hots = append(hots, hot{p, n})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].n != hots[j].n {
			return hots[i].n > hots[j].n
		}
		if hots[i].p.a != hots[j].p.a {
			return hots[i].p.a < hots[j].p.a
		}
		return hots[i].p.b < hots[j].p.b
	})

	fmt.Printf("offset grammar: %d symbols for %d accesses (the hot (0, 96)* pattern\n",
		profile.Grammars[decomp.DimOffset].Symbols(), profile.Records)
	fmt.Println("compresses to a handful of rules — §3.2's frequently repeated sequence)")
	fmt.Println("\nhottest same-record offset digrams:")
	fmt.Println("  (off_a, off_b)    count   gap    verdict")
	for i, h := range hots {
		if i == 6 {
			break
		}
		gap := int64(h.p.b) - int64(h.p.a)
		if gap < 0 {
			gap = -gap
		}
		verdict := "fine: same cache line"
		if gap >= cacheLine {
			verdict = fmt.Sprintf("REORDER: fields span %d lines; pack them together", 1+gap/cacheLine)
		}
		fmt.Printf("  (%3d, %3d)     %7d   %4d   %s\n", h.p.a, h.p.b, h.n, gap, verdict)
	}
	fmt.Println("\nsuggested layout: move hitCount (96) and lastSeen (104) next to id (0);")
	fmt.Println("the hot loop then touches one cache line per record instead of two.")

	// Quantify the suggestion: replay the object-relative stream through a
	// 32 KiB L1 under the original and the reordered layouts.
	o := wp.OMC()
	var pool omc.GroupInfo
	for _, g := range o.Groups() {
		if g.Site == sitePool {
			pool = g
		}
	}
	order, err := layout.PlanFields(recs, pool, recSize)
	if err != nil {
		panic(err)
	}
	reordered := &plan.Plan{Fields: []plan.FieldOrder{order}}
	before, _ := layout.Evaluate(recs, layout.OriginalResolver(o), cachesim.L1D)
	after, _ := layout.Evaluate(recs, layout.PlanResolver(reordered, o), cachesim.L1D)
	fmt.Printf("\nmeasured on a simulated L1 (32KiB/64B/8-way):\n")
	fmt.Printf("  original layout:  %6d misses (%.2f%%)\n", before.Misses, 100*before.MissRate())
	fmt.Printf("  reordered layout: %6d misses (%.2f%%)  — %.1f%% fewer misses\n",
		after.Misses, 100*after.MissRate(), layout.Improvement(before, after))
}
