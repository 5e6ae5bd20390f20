package ormprof

// Determinism regression gate for the parallel profiling pipeline: one
// recorded trace, pushed through WHOMP and LEAP with 1, 2, and 8 workers,
// must produce byte-identical serialized profiles and identical LEAP stride
// reports. On-disk ORMWHOMP/ORMLEAP outputs are part of the repository's
// contract ("collect once, profile many"); this test pins that contract
// against any future change to the sharding or merge stages.

import (
	"bytes"
	"reflect"
	"testing"

	"ormprof/internal/experiments"
	"ormprof/internal/leap"
	"ormprof/internal/stride"
	"ormprof/internal/trace"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

var determinismWorkers = []int{1, 2, 8}

func TestPipelineDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, name := range []string{"linkedlist", "181.mcf"} {
		t.Run(name, func(t *testing.T) {
			prog, err := workloads.New(name, workloads.Config{Scale: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			buf, sites := experiments.Record(prog, nil)

			var refWhomp, refLeap []byte
			var refStride map[trace.InstrID]stride.Info
			for _, workers := range determinismWorkers {
				wp := whomp.NewParallel(sites, workers)
				buf.Replay(wp)
				var wb bytes.Buffer
				if _, err := wp.Profile(name).WriteTo(&wb); err != nil {
					t.Fatalf("workers=%d: whomp WriteTo: %v", workers, err)
				}

				lp := leap.NewParallel(sites, 0, workers)
				buf.Replay(lp)
				leapProfile := lp.Profile(name)
				var lb bytes.Buffer
				if _, err := leapProfile.WriteTo(&lb); err != nil {
					t.Fatalf("workers=%d: leap WriteTo: %v", workers, err)
				}
				report := stride.FromLEAP(leapProfile)

				if workers == determinismWorkers[0] {
					refWhomp, refLeap, refStride = wb.Bytes(), lb.Bytes(), report
					continue
				}
				if !bytes.Equal(wb.Bytes(), refWhomp) {
					t.Errorf("workers=%d: WHOMP profile differs from workers=1 (%d vs %d bytes)",
						workers, wb.Len(), len(refWhomp))
				}
				if !bytes.Equal(lb.Bytes(), refLeap) {
					t.Errorf("workers=%d: LEAP profile differs from workers=1 (%d vs %d bytes)",
						workers, lb.Len(), len(refLeap))
				}
				if !reflect.DeepEqual(report, refStride) {
					t.Errorf("workers=%d: stride report differs from workers=1", workers)
				}
			}
		})
	}
}
