package depend

import (
	"math"
	"testing"

	"ormprof/internal/trace"
)

func access(instr trace.InstrID, addr trace.Addr, store bool, tm trace.Time) trace.Event {
	return trace.Event{Kind: trace.EvAccess, Instr: instr, Addr: addr, Size: 8, Store: store, Time: tm}
}

func TestIdealBasicRAW(t *testing.T) {
	// st1 writes A; ld2 reads A twice; ld3 reads B (no dependence).
	ideal := NewIdeal()
	ideal.Emit(access(1, 0x100, true, 0))
	ideal.Emit(access(2, 0x100, false, 1))
	ideal.Emit(access(2, 0x100, false, 2))
	ideal.Emit(access(3, 0x200, false, 3))

	res := ideal.Result()
	if res.Conflicts[Pair{St: 1, Ld: 2}] != 2 {
		t.Errorf("conflicts(1,2) = %d", res.Conflicts[Pair{St: 1, Ld: 2}])
	}
	if _, ok := res.Conflicts[Pair{St: 1, Ld: 3}]; ok {
		t.Error("ld3 should not conflict")
	}
	mdf := res.MDF()
	if mdf[Pair{St: 1, Ld: 2}] != 1.0 {
		t.Errorf("MDF(1,2) = %v", mdf[Pair{St: 1, Ld: 2}])
	}
}

func TestIdealOrderMatters(t *testing.T) {
	// A load before the store is not a RAW dependence.
	ideal := NewIdeal()
	ideal.Emit(access(2, 0x100, false, 0))
	ideal.Emit(access(1, 0x100, true, 1))
	if len(ideal.Result().Conflicts) != 0 {
		t.Error("load-before-store counted as dependence")
	}
}

func TestIdealPartialFrequency(t *testing.T) {
	// ld2 executes 4 times; only half its reads hit stored locations.
	ideal := NewIdeal()
	ideal.Emit(access(1, 0x100, true, 0))
	ideal.Emit(access(2, 0x100, false, 1))
	ideal.Emit(access(2, 0x200, false, 2))
	ideal.Emit(access(2, 0x100, false, 3))
	ideal.Emit(access(2, 0x300, false, 4))
	mdf := ideal.Result().MDF()
	if got := mdf[Pair{St: 1, Ld: 2}]; got != 0.5 {
		t.Errorf("MDF = %v, want 0.5", got)
	}
}

func TestIdealMultipleWriters(t *testing.T) {
	// The paper's example shape: ld1 depends on st2 for 10% and st3 for
	// 90% of its executions.
	ideal := NewIdeal()
	now := trace.Time(0)
	for i := 0; i < 10; i++ {
		addr := trace.Addr(0x1000 + i*8)
		if i == 0 {
			ideal.Emit(access(2, addr, true, now))
		} else {
			ideal.Emit(access(3, addr, true, now))
		}
		now++
	}
	for i := 0; i < 10; i++ {
		ideal.Emit(access(1, trace.Addr(0x1000+i*8), false, now))
		now++
	}
	mdf := ideal.Result().MDF()
	if math.Abs(mdf[Pair{St: 2, Ld: 1}]-0.1) > 1e-9 {
		t.Errorf("MDF(st2, ld1) = %v, want 0.1", mdf[Pair{St: 2, Ld: 1}])
	}
	if math.Abs(mdf[Pair{St: 3, Ld: 1}]-0.9) > 1e-9 {
		t.Errorf("MDF(st3, ld1) = %v, want 0.9", mdf[Pair{St: 3, Ld: 1}])
	}
}

func TestConnorsFindsNearMissesFar(t *testing.T) {
	// With a window of 4 stores, a dependence 2 stores back is found but
	// one 10 stores back is missed.
	c := NewConnors(4)
	now := trace.Time(0)
	c.Emit(access(1, 0x100, true, now)) // target store
	now++
	for i := 0; i < 2; i++ {
		c.Emit(access(9, trace.Addr(0x900+i*8), true, now))
		now++
	}
	c.Emit(access(2, 0x100, false, now)) // found: 2 stores in between
	now++
	for i := 0; i < 10; i++ {
		c.Emit(access(9, trace.Addr(0xa00+i*8), true, now))
		now++
	}
	c.Emit(access(3, 0x100, false, now)) // missed: evicted from window

	res := c.Result()
	if res.Conflicts[Pair{St: 1, Ld: 2}] != 1 {
		t.Errorf("near dependence not found: %v", res.Conflicts)
	}
	if _, ok := res.Conflicts[Pair{St: 1, Ld: 3}]; ok {
		t.Error("far dependence should be outside the window")
	}
}

func TestConnorsNeverOverestimates(t *testing.T) {
	// Property from the paper (§4.2.1): for every pair, Connors' MDF is at
	// most the ideal MDF. Drive both with a pseudo-random trace.
	ideal := NewIdeal()
	con := NewConnors(8)
	now := trace.Time(0)
	state := uint64(12345)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < 5000; i++ {
		ev := access(trace.InstrID(1+rnd(6)), trace.Addr(0x1000+rnd(64)*8), rnd(2) == 0, now)
		ideal.Emit(ev)
		con.Emit(ev)
		now++
	}
	im := ideal.Result().MDF()
	cm := con.Result().MDF()
	for p, cv := range cm {
		if iv, ok := im[p]; !ok || cv > iv+1e-9 {
			t.Fatalf("Connors overestimates pair %v: %v > %v", p, cv, im[p])
		}
	}
}

func TestMDFClamp(t *testing.T) {
	r := NewResult()
	r.LoadExecs[2] = 4
	r.Conflicts[Pair{St: 1, Ld: 2}] = 10 // more conflicts than execs
	if got := r.MDF()[Pair{St: 1, Ld: 2}]; got != 1.0 {
		t.Errorf("MDF = %v, want clamped 1.0", got)
	}
	// Zero-exec loads are dropped rather than dividing by zero.
	r2 := NewResult()
	r2.Conflicts[Pair{St: 1, Ld: 3}] = 5
	if len(r2.MDF()) != 0 {
		t.Error("pair with unknown load execs should be dropped")
	}
}

func TestSortedMDF(t *testing.T) {
	m := map[Pair]float64{
		{St: 2, Ld: 1}: 0.5,
		{St: 1, Ld: 2}: 0.25,
		{St: 1, Ld: 1}: 1.0,
	}
	cm := SortedMDF(m)
	want := []Pair{{St: 1, Ld: 1}, {St: 1, Ld: 2}, {St: 2, Ld: 1}}
	for i, p := range want {
		if cm.Pairs[i] != p {
			t.Fatalf("order[%d] = %v, want %v", i, cm.Pairs[i], p)
		}
		if cm.Vals[i] != m[p] {
			t.Fatalf("value[%d] = %v", i, cm.Vals[i])
		}
	}
}
