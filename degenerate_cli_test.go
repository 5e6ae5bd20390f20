package ormprof

// Degenerate-input coverage: a header-only trace — valid header, zero
// frames — is the edge every reader hits first and every off-by-one
// breaks last. It must sail through every tool with exit code 0 and
// empty-but-well-formed output, not a crash, a non-zero exit, or garbage.

import (
	"os"
	"path/filepath"
	"testing"

	"ormprof/internal/tracefmt"
)

// writeHeaderOnly writes a trace file containing only a header (zero
// frames) and returns its path.
func writeHeaderOnly(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "empty.ormtrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := tracefmt.NewWriter(f, tracefmt.WithName("empty"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHeaderOnlyTraceAllTools(t *testing.T) {
	t.Run("v3", func(t *testing.T) {
		path := writeHeaderOnly(t, t.TempDir())

		out := runTool(t, "tracecat", "-verify", path)
		wantContains(t, out, "OK: 0 frames, 0 events, no damage")

		out = runTool(t, "tracecat", "-stats", path)
		wantContains(t, out, `workload "empty"`, "0 events: 0 loads, 0 stores, 0 allocs, 0 frees")

		out = runTool(t, "tracecat", "-count", path)
		wantContains(t, out, "0")

		out = runTool(t, "whomp", "-replay", path)
		wantContains(t, out, "workload empty: 0 accesses, 0 objects in 0 groups")

		out = runTool(t, "leap", "-replay", path)
		wantContains(t, out, "workload empty: 0 accesses, 0 streams, 0 LMADs")

		out = runTool(t, "stridescan", "-replay", path)
		wantContains(t, out, "workload empty: no strongly strided instructions")

		out = runTool(t, "phasescan", "-replay", path)
		wantContains(t, out, "Phases")

		out = runTool(t, "mdep", "-replay", path)
		wantContains(t, out, "empty — LEAP error distribution (0 pairs)")

		// The optimize loop on a header-only trace: an empty (but
		// valid) plan, zero misses on both sides.
		plan := filepath.Join(t.TempDir(), "empty.ormplan")
		out = runTool(t, "ormprof", "optimize", "-replay", path, "-plan", plan)
		wantContains(t, out, "workload empty: 0 events, 0 accesses",
			"plan: 0 field orders, 0 placements, 0 prefetch rules")
		if _, err := os.Stat(plan); err != nil {
			t.Errorf("optimize did not write the plan artifact: %v", err)
		}

		out = runTool(t, "ormprof", "translate", "-replay", path)
		wantContains(t, out, "translated 0 accesses (0 unmapped)")

		out = runTool(t, "ormprof", "inspect", path)
		wantContains(t, out, `workload "empty"`, "0 events")
	})
}
