package ormprof

// Integration tests for the command-line tools: each binary is built once
// and driven end to end with small workloads, asserting the key lines of
// its output. These catch wiring regressions (flag plumbing, file I/O,
// formats) that package-level unit tests cannot see.

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ormprof/internal/tracefmt"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles all cmd/ binaries into a shared temp dir, once.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "ormprof-cli")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir+string(os.PathSeparator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			buildDir = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v\n%s", buildErr, buildDir)
	}
	return buildDir
}

// runTool executes a built binary and returns its combined output.
func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(buildTools(t), name)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func wantContains(t *testing.T, out string, subs ...string) {
	t.Helper()
	for _, s := range subs {
		if !strings.Contains(out, s) {
			t.Errorf("output missing %q:\n%s", s, out)
		}
	}
}

func TestCLIWhompSingleWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	profile := filepath.Join(dir, "ll.whomp")
	out := runTool(t, "whomp", "-workload", "linkedlist", "-o", profile)
	wantContains(t, out, "workload linkedlist", "RASG:", "OMSG:", "smaller", "wrote")
	if _, err := os.Stat(profile); err != nil {
		t.Fatalf("profile not written: %v", err)
	}

	// The umbrella tool must identify the file.
	out = runTool(t, "ormprof", "inspect", profile)
	wantContains(t, out, "WHOMP profile", `workload "linkedlist"`, "object table")
}

func TestCLILeapSingleWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	profile := filepath.Join(dir, "p.leap")
	out := runTool(t, "leap", "-workload", "197.parser", "-o", profile)
	wantContains(t, out, "workload 197.parser", "sample quality", "compression")

	out = runTool(t, "ormprof", "inspect", profile)
	wantContains(t, out, "LEAP profile", "streams", "sample quality")
}

func TestCLIWorkersFlagDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	// -workers must change only the wall-clock, never the bytes written:
	// profiles collected with 1 and 4 workers are identical files.
	dir := t.TempDir()
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return b
	}

	w1 := filepath.Join(dir, "w1.whomp")
	w4 := filepath.Join(dir, "w4.whomp")
	runTool(t, "whomp", "-workload", "linkedlist", "-workers", "1", "-o", w1)
	runTool(t, "whomp", "-workload", "linkedlist", "-workers", "4", "-o", w4)
	if !bytes.Equal(read(w1), read(w4)) {
		t.Errorf("whomp profiles differ between -workers 1 and -workers 4")
	}

	l1 := filepath.Join(dir, "l1.leap")
	l4 := filepath.Join(dir, "l4.leap")
	runTool(t, "leap", "-workload", "linkedlist", "-workers", "1", "-o", l1)
	runTool(t, "leap", "-workload", "linkedlist", "-workers", "4", "-o", l4)
	if !bytes.Equal(read(l1), read(l4)) {
		t.Errorf("leap profiles differ between -workers 1 and -workers 4")
	}
}

func TestCLIRecordAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.ormtrace")
	out := runTool(t, "ormprof", "record", "-workload", "linkedlist", "-o", tr)
	wantContains(t, out, "recorded linkedlist", "loads", "stores")

	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return b
	}

	// A trace teed off a live profiling run (-record) is byte-identical to
	// one written by the dedicated record command.
	teed := filepath.Join(dir, "teed.ormtrace")
	runTool(t, "whomp", "-workload", "linkedlist", "-record", teed)
	if !bytes.Equal(read(tr), read(teed)) {
		t.Errorf("ormprof record and whomp -record wrote different traces")
	}

	// "Collect once, profile many": a profile built from the replayed trace
	// must be byte-identical to one built live, for every worker count.
	liveProfile := filepath.Join(dir, "live.whomp")
	runTool(t, "whomp", "-workload", "linkedlist", "-o", liveProfile)
	for _, workers := range []string{"1", "2", "8"} {
		replayed := filepath.Join(dir, "replay-w"+workers+".whomp")
		runTool(t, "whomp", "-replay", tr, "-workers", workers, "-o", replayed)
		if !bytes.Equal(read(liveProfile), read(replayed)) {
			t.Errorf("replayed profile (workers=%s) differs from live profile", workers)
		}
	}

	lLive := filepath.Join(dir, "live.leap")
	runTool(t, "leap", "-workload", "linkedlist", "-o", lLive)
	for _, workers := range []string{"1", "2", "8"} {
		replayed := filepath.Join(dir, "replay-w"+workers+".leap")
		runTool(t, "leap", "-replay", tr, "-workers", workers, "-o", replayed)
		if !bytes.Equal(read(lLive), read(replayed)) {
			t.Errorf("replayed LEAP profile (workers=%s) differs from live profile", workers)
		}
	}

	// A replayed run prints the same OMSG line as the live one.
	live := runTool(t, "whomp", "-workload", "linkedlist")
	replay := runTool(t, "whomp", "-replay", tr)
	pick := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "OMSG:") {
				return strings.TrimSpace(line)
			}
		}
		return ""
	}
	if pick(live) == "" || pick(live) != pick(replay) {
		t.Errorf("live and replayed OMSG lines differ:\n live:   %q\n replay: %q", pick(live), pick(replay))
	}

	// inspect recognizes the trace file.
	out = runTool(t, "ormprof", "inspect", tr)
	wantContains(t, out, "ORMTRACE", `workload "linkedlist"`, "loads")
}

func TestCLITracecat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.ormtrace")
	runTool(t, "ormprof", "record", "-workload", "linkedlist", "-o", tr)

	out := runTool(t, "tracecat", "-stats", tr)
	wantContains(t, out, `workload "linkedlist"`, "events:", "loads", "distinct instructions")

	// -count with a filter: allocs only.
	count := strings.TrimSpace(runTool(t, "tracecat", "-count", "-kind", "alloc", tr))
	if count == "0" || count == "" {
		t.Errorf("expected a nonzero alloc count, got %q", count)
	}

	// Printing with a limit reports the remainder.
	out = runTool(t, "tracecat", "-n", "3", tr)
	wantContains(t, out, "more matching records")

	// Time-range + instruction filters compose.
	out = runTool(t, "tracecat", "-kind", "access", "-from", "0", "-to", "50", tr)
	if !strings.Contains(out, "i") {
		t.Errorf("expected access records in [0,50]:\n%s", out)
	}
}

// TestCLIFlagValidation drives every tool with malformed -workers and
// -mem-budget values. The contract is uniform: the parse-time error and
// the tool's usage text go to stderr (stdout stays empty — nothing ran),
// and the process exits 2. Self-validating flag.Values under
// flag.ExitOnError give every binary this behavior without per-main code.
func TestCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	cases := []struct {
		tool string
		args []string
		want string // substring of the stderr error line
	}{
		{"whomp", []string{"-workers", "0"}, "must be at least 1"},
		{"whomp", []string{"-mem-budget", "banana"}, "not a size"},
		{"leap", []string{"-workers", "-3"}, "must be at least 1"},
		{"leap", []string{"-mem-budget", "-4K"}, "must be non-negative"},
		{"stridescan", []string{"-workers", "x"}, "must be an integer"},
		{"stridescan", []string{"-mem-budget", "10Q"}, "not a size"},
		{"mdep", []string{"-mem-budget", "1.5M"}, "not a size"},
		{"phasescan", []string{"-mem-budget", ""}, "not a size"},
		{"ormprof", []string{"translate", "-mem-budget", "zz"}, "not a size"},
		{"ormprof", []string{"grammar", "-workers", "0"}, "must be at least 1"},
		{"ormprof", []string{"optimize", "-workers", "0"}, "must be at least 1"},
		{"ormprof", []string{"optimize", "-workers", "two"}, "must be an integer"},
		{"ormprof", []string{"optimize", "-mem-budget", "plenty"}, "not a size"},
		{"ormprof", []string{"optimize", "-deadline", "soon"}, "invalid value"},
		{"tracecat", []string{"-mem-budget", "huge"}, "not a size"},
		{"ormpd", []string{"-mem-budget", "-1"}, "must be non-negative"},
		{"ormpd", []string{"-global-mem-budget", "lots"}, "not a size"},
		{"ormpd", []string{"-cluster-mem-budget", "nope"}, "not a size"},
		// Cluster flag validation: malformed shard lists die at parse time,
		// cross-flag conflicts die in the same exit-2-plus-usage shape.
		{"ormpd", []string{"-cluster", "-shards", "a:1,a:1"}, "duplicate element"},
		{"ormpd", []string{"-cluster", "-shards", "a:1,,b:1"}, "empty element in list"},
		{"ormpd", []string{"-cluster", "-local-shards", "0"}, "must be at least 1"},
		{"ormpd", []string{"-cluster", "-local-shards", "two"}, "must be an integer"},
		{"ormpd", []string{"-cluster"}, "-cluster needs -shards"},
		{"ormpd", []string{"-shards", "a:1"}, "require -cluster"},
		{"ormpd", []string{"-local-shards", "2"}, "require -cluster"},
		{"ormpd", []string{"-cluster", "-shards", "a:1", "-local-shards", "2"}, "mutually exclusive"},
		{"ormpd", []string{"-cluster", "-local-shards", "2", "-merge", "d1"}, "-merge and -cluster are mutually exclusive"},
		// Reconfiguration flag validation: the admin/ctl/replication flags
		// fail the same way — usage on stderr, exit 2, nothing run.
		{"ormpd", []string{"-ctl", "status"}, "-ctl needs -admin"},
		{"ormpd", []string{"-ctl", "add-shard", "-admin", "h:1"}, "needs -shard"},
		{"ormpd", []string{"-ctl", "remove-shard", "-admin", "h:1"}, "needs -shard"},
		{"ormpd", []string{"-ctl", "resize", "-admin", "h:1"}, "unknown -ctl command"},
		{"ormpd", []string{"-ctl", "status", "-admin", "h:1", "-shard", "h:2"}, "takes no -shard"},
		{"ormpd", []string{"-ctl", "status", "-admin", "h:1", "-cluster", "-local-shards", "2"}, "does not combine"},
		{"ormpd", []string{"-ctl", "add-shard", "-admin", "h:1", "-shard", "h:2", "-epoch", "-1"}, "invalid value"},
		{"ormpd", []string{"-standby"}, "-standby applies to router mode"},
		{"ormpd", []string{"-cluster", "-shards", "a:1", "-standby"}, "-standby needs -active"},
		{"ormpd", []string{"-cluster", "-shards", "a:1", "-peers", "p:1,p:1"}, "duplicate element"},
		{"ormpd", []string{"-routers", "2"}, "-routers requires -local-shards"},
		{"ormpd", []string{"-cluster", "-local-shards", "2", "-routers", "0"}, "must be at least 1"},
		{"ormpush", []string{"-addrs", "h:1,,h:2"}, "empty element in list"},
		{"ormpush", []string{"-addrs", "h:1,h:1"}, "duplicate element"},
		// -approx validation: every binary that profiles rejects malformed
		// values at parse time, and the two tools with cross-flag
		// constraints (tracecat needs -stats, ormpd's merge plane folds
		// sketches rather than taking the flag) fail in the same shape.
		{"whomp", []string{"-approx=banana"}, "invalid boolean value"},
		{"leap", []string{"-approx=2.5"}, "invalid boolean value"},
		{"stridescan", []string{"-approx=yep"}, "invalid boolean value"},
		{"mdep", []string{"-approx=maybe"}, "invalid boolean value"},
		{"phasescan", []string{"-approx="}, "invalid boolean value"},
		{"ormprof", []string{"optimize", "-approx=x"}, "invalid boolean value"},
		{"tracecat", []string{"-approx=no!"}, "invalid boolean value"},
		{"tracecat", []string{"-approx", "x.ormtrace"}, "-approx requires -stats"},
		{"ormpd", []string{"-approx=banana"}, "invalid boolean value"},
		{"ormpd", []string{"-approx", "-merge", "d1"}, "does not combine with -merge"},
	}
	for _, tc := range cases {
		bin := filepath.Join(buildTools(t), tc.tool)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		if err == nil {
			t.Errorf("%s %v: accepted invalid flag\nstdout:\n%s", tc.tool, tc.args, stdout.String())
			continue
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Errorf("%s %v: %v", tc.tool, tc.args, err)
			continue
		}
		if code := ee.ExitCode(); code != 2 {
			t.Errorf("%s %v: exit code %d, want 2\nstderr:\n%s", tc.tool, tc.args, code, stderr.String())
		}
		if got := stderr.String(); !strings.Contains(got, tc.want) {
			t.Errorf("%s %v: stderr missing %q:\n%s", tc.tool, tc.args, tc.want, got)
		} else if !strings.Contains(got, "Usage of") {
			t.Errorf("%s %v: stderr missing usage text:\n%s", tc.tool, tc.args, got)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %v: flag errors must not write to stdout, got:\n%s", tc.tool, tc.args, stdout.String())
		}
	}
}

// TestCLIApprox drives the -approx sketch path end to end: an approx run
// is a request, not degradation — it exits 0 and its report leads with
// the error accounting; the output is byte-identical for every -workers
// count; tracecat -stats -approx prints the top-K heavy hitters; and a
// -mem-budget too small even for the sketches pushes the ladder further
// down and flips the exit code to 2.
func TestCLIApprox(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.ormtrace")
	runTool(t, "ormprof", "record", "-workload", "linkedlist", "-o", tr)

	out := runToolExit(t, 0, "whomp", "-replay", tr, "-approx", "-workers", "1")
	wantContains(t, out, "mode sketch-stride", "approx sketch-stride",
		"epsilon", "delta", "error-bound", "hot")

	// Governed runs are sequential, so the sketches see the same stream in
	// the same order regardless of -workers.
	for _, workers := range []string{"2", "8"} {
		if got := runToolExit(t, 0, "whomp", "-replay", tr, "-approx", "-workers", workers); got != out {
			t.Errorf("-approx output differs between -workers 1 and -workers %s", workers)
		}
	}

	// The same flag rides the live-workload path and the other profilers.
	out = runToolExit(t, 0, "leap", "-workload", "linkedlist", "-approx")
	wantContains(t, out, "approx sketch-stride", "error-bound")

	// tracecat -stats -approx summarizes with the heavy hitters and their
	// one-sided overcount bounds.
	out = runToolExit(t, 0, "tracecat", "-stats", "-approx", tr)
	wantContains(t, out, "approximate summary", "hot cache lines", "line 0x", "err")

	// -approx composes with -mem-budget: the sketches hold fixed memory,
	// but a budget below even that fixed footprint still degrades, and the
	// exit-2 convention reports it.
	out = runToolExit(t, 2, "whomp", "-replay", tr, "-approx", "-mem-budget", "1K")
	wantContains(t, out, "profiling degraded to")

	// regularity and locality take both flags like every other subcommand.
	for _, sub := range []string{"regularity", "locality"} {
		out = runToolExit(t, 0, "ormprof", sub, "-replay", tr, "-approx")
		wantContains(t, out, "mode sketch-stride")
		out = runToolExit(t, 2, "ormprof", sub, "-replay", tr, "-mem-budget", "1K")
		wantContains(t, out, "profiling degraded to")
	}
}

// govReport matches one governance report of a pass that a roomy budget
// never tripped.
var govReport = regexp.MustCompile(`^# resource governance\nmode full\nbudget 1073741824\nused \d+\nsteps 0\n`)

// TestCLIGovernedPassesOnePath: every tool runs its analysis passes
// through the one governed entry point. Under a budget that never trips,
// a tool's stdout is its ungoverned stdout followed by one governance
// report per governed pass (optimize sets them off with a blank line),
// and both runs exit 0.
func TestCLIGovernedPassesOnePath(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	src := []string{"-workload", "197.parser"}
	for _, tc := range []struct {
		name   string
		args   []string
		passes int
	}{
		{"whomp", []string{"whomp"}, 2},
		{"leap", []string{"leap"}, 1},
		{"stridescan", []string{"stridescan"}, 2},
		{"mdep", []string{"mdep"}, 1},
		{"phasescan", []string{"phasescan"}, 1},
		{"translate", []string{"ormprof", "translate"}, 1},
		{"groups", []string{"ormprof", "groups"}, 1},
		{"grammar", []string{"ormprof", "grammar"}, 1},
		{"regularity", []string{"ormprof", "regularity"}, 1},
		{"locality", []string{"ormprof", "locality"}, 1},
		{"optimize", []string{"ormprof", "optimize", "-plan", "none"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout := func(extra ...string) string {
				t.Helper()
				args := append(append(append([]string{}, tc.args[1:]...), src...), extra...)
				out, err := exec.Command(filepath.Join(buildTools(t), tc.args[0]), args...).Output()
				if err != nil {
					t.Fatalf("%v %v: %v", tc.args[0], args, err)
				}
				return string(out)
			}
			plain := stdout()
			governed := stdout("-mem-budget", "1G")
			rest, ok := strings.CutPrefix(governed, plain)
			if !ok {
				t.Fatalf("governed stdout does not start with the ungoverned stdout:\n%s\n--- ungoverned ---\n%s", governed, plain)
			}
			if tc.name == "optimize" {
				if rest, ok = strings.CutPrefix(rest, "\n"); !ok {
					t.Fatalf("optimize: no blank line before the governance report:\n%s", governed)
				}
			}
			for i := 0; i < tc.passes; i++ {
				m := govReport.FindString(rest)
				if m == "" {
					t.Fatalf("report %d of %d missing or degraded; tail:\n%s", i+1, tc.passes, rest)
				}
				rest = rest[len(m):]
			}
			if rest != "" {
				t.Errorf("unexpected output after %d report(s):\n%s", tc.passes, rest)
			}
		})
	}
}

func TestCLIReplaySingleWorkloadTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.ormtrace")
	runTool(t, "ormprof", "record", "-workload", "197.parser", "-o", tr)

	// Every analysis tool accepts -replay and names the workload from the
	// trace header.
	out := runTool(t, "stridescan", "-replay", tr)
	wantContains(t, out, "workload 197.parser")

	out = runTool(t, "mdep", "-replay", tr)
	wantContains(t, out, "197.parser", "LEAP", "Connors")

	out = runTool(t, "ormprof", "optimize", "-replay", tr, "-plan", "none")
	wantContains(t, out, "workload 197.parser", "applied via replay resolution")

	out = runTool(t, "phasescan", "-replay", tr)
	wantContains(t, out, "197.parser", "Monolithic capture")

	out = runTool(t, "ormprof", "groups", "-replay", tr)
	wantContains(t, out, "Objects")
}

func TestCLIOrmprofSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "ormprof", "translate", "-workload", "linkedlist", "-n", "4")
	wantContains(t, out, "(ld1, 1, 0, 0, t0)", "translated")

	out = runTool(t, "ormprof", "groups", "-workload", "186.crafty")
	wantContains(t, out, "attack_table", "board", "Objects")

	out = runTool(t, "ormprof", "regularity", "-workload", "164.gzip", "-n", "5")
	wantContains(t, out, "REGULAR", "irregular", "separation")

	out = runTool(t, "ormprof", "locality", "-workload", "197.parser")
	wantContains(t, out, "LRU capacity", "Line miss ratio", "Object miss ratio")
}

func TestCLIStrideScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "stridescan")
	wantContains(t, out, "Figure 9", "average stride score")
}

// TestCLIOptimize drives the closed PGO loop end-to-end: the text report
// is byte-identical for any -workers count, the ORMPLAN artifacts from a
// live run and a recorded-trace replay of the same workload are
// byte-identical, the clustering showcase improves, and the documented
// unimprovable pointer chase does not.
func TestCLIOptimize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	tr := filepath.Join(dir, "hc.ormtrace")
	runTool(t, "ormprof", "record", "-workload", "hotcold", "-o", tr)

	livePlan := filepath.Join(dir, "live.ormplan")
	liveOut := runTool(t, "ormprof", "optimize", "-workload", "hotcold", "-plan", livePlan, "-workers", "1")
	wantContains(t, liveOut, "workload hotcold", "field orders", "placements",
		"applied via live re-run", "L1D", "L2", "AMAT")

	// Byte-identical output across worker counts.
	for _, n := range []string{"2", "8"} {
		out := runTool(t, "ormprof", "optimize", "-workload", "hotcold", "-plan", "none", "-workers", n)
		// The only difference vs liveOut is the plan-path suffix; strip it.
		if want := strings.ReplaceAll(liveOut, " -> "+livePlan, ""); out != want {
			t.Errorf("-workers %s output differs:\n--- workers=1 ---\n%s--- workers=%s ---\n%s", n, want, n, out)
		}
	}

	// Replay of the recorded trace derives the byte-identical plan.
	replayPlan := filepath.Join(dir, "replay.ormplan")
	replayOut := runTool(t, "ormprof", "optimize", "-replay", tr, "-plan", replayPlan)
	wantContains(t, replayOut, "applied via replay resolution")
	lp, err := os.ReadFile(livePlan)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := os.ReadFile(replayPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lp, rp) {
		t.Errorf("live and replay plans differ (%d vs %d bytes)", len(lp), len(rp))
	}

	// hotcold is built so clustering wins visibly; chase so it can't.
	if !strings.Contains(liveOut, "-69.6%") {
		t.Errorf("hotcold L1 miss reduction missing:\n%s", liveOut)
	}
	chaseOut := runTool(t, "ormprof", "optimize", "-workload", "chase", "-plan", "none")
	if !strings.Contains(chaseOut, "(0.0% faster)") {
		t.Errorf("chase should be unimprovable:\n%s", chaseOut)
	}

	// CSV rendering of the delta table.
	csvOut := runTool(t, "ormprof", "optimize", "-workload", "chase", "-plan", "none", "-csv")
	wantContains(t, csvOut, "level,geometry,before-misses", "L1D,")
}

func TestCLIPhaseScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "phasescan", "-workload", "256.bzip2")
	wantContains(t, out, "Phases", "Monolithic capture", "Phase-cognizant capture")
}

func TestCLIInspectRejectsGarbage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(buildTools(t), "ormprof")
	out, err := exec.Command(bin, "inspect", bad).CombinedOutput()
	if err == nil {
		t.Fatalf("inspect accepted garbage:\n%s", out)
	}
	if !strings.Contains(string(out), "not a WHOMP profile, LEAP profile, or ORMTRACE trace") {
		t.Errorf("unexpected error output: %s", out)
	}
}

func TestCLIDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.leap")
	b := filepath.Join(dir, "b.leap")
	runTool(t, "leap", "-workload", "197.parser", "-seed", "1", "-o", a)
	runTool(t, "leap", "-workload", "197.parser", "-seed", "2", "-scale", "2", "-o", b)
	out := runTool(t, "ormprof", "diff", a, b)
	wantContains(t, out, "Execs A", "Execs B", "sample quality")
	if !strings.Contains(out, "+100") {
		t.Errorf("expected ~+100%% exec deltas for a 2x-scale run:\n%s", out)
	}
	// Identical runs: no differences.
	out = runTool(t, "ormprof", "diff", a, a)
	wantContains(t, out, "no significant per-instruction differences")
}

func TestCLIGrammar(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "ormprof", "grammar", "-workload", "linkedlist", "-dim", "offset", "-n", "3")
	wantContains(t, out, "offset-dimension grammar", "hottest rules", "[0 8")
}

func TestCLIRegenLossless(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	profile := filepath.Join(dir, "ll.whomp")
	regen := filepath.Join(dir, "regen.ormtrace")
	runTool(t, "whomp", "-workload", "linkedlist", "-o", profile)
	out := runTool(t, "ormprof", "regen", "-o", regen, profile)
	wantContains(t, out, "regenerated 2560 accesses", "wrote")
	// The first access of the linked-list trace is instruction 1 at the
	// first node (heap base).
	wantContains(t, out, "i1", "0x40000000")
}

func TestCLIMdep(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "mdep")
	wantContains(t, out, "Figure 6", "Figure 7", "Figure 8", "LEAP", "Connors")
}

func TestCLICSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	out := runTool(t, "leap", "-csv")
	wantContains(t, out, "Benchmark,Accesses,Compression", "164.gzip,")
	if strings.Contains(out, "paper averages") {
		t.Error("CSV mode should suppress prose")
	}
}

// runToolExit executes a built binary and asserts its exact exit code —
// the tools' 0/1/2 (clean/hard-failure/salvaged) convention is part of
// their contract.
func runToolExit(t *testing.T, wantCode int, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(buildTools(t), name)
	out, err := exec.Command(bin, args...).CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		code = ee.ExitCode()
	}
	if code != wantCode {
		t.Fatalf("%s %v: exit code %d, want %d\n%s", name, args, code, wantCode, out)
	}
	return string(out)
}

// corruptTrace writes a many-frame linkedlist trace and returns both the
// pristine path and a copy with one payload byte of the second frame
// flipped. The small batch size guarantees multiple frames, so the damage
// costs one frame and the rest salvages.
func corruptTrace(t *testing.T, dir string) (clean, damaged string) {
	t.Helper()
	buf, sites, _ := recordWorkload(t, "linkedlist")
	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName("linkedlist"), tracefmt.WithBatch(64))
	tw.SetSites(sites)
	for _, e := range buf.Events {
		tw.Emit(e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()
	clean = filepath.Join(dir, "clean.ormtrace")
	if err := os.WriteFile(clean, data, 0o644); err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte(tracefmt.FrameMagic))
	if idx < 0 {
		t.Fatal("no frame marker in recorded trace")
	}
	second := bytes.Index(data[idx+1:], []byte(tracefmt.FrameMagic))
	if second < 0 {
		t.Fatal("trace has only one frame")
	}
	bad := bytes.Clone(data)
	bad[idx+1+second+12] ^= 0x5a // inside the second frame's payload
	damaged = filepath.Join(dir, "damaged.ormtrace")
	if err := os.WriteFile(damaged, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	return clean, damaged
}

func TestCLITracecatVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	clean, damaged := corruptTrace(t, dir)

	// Clean trace: exit 0 with an OK verdict.
	out := runToolExit(t, 0, "tracecat", "-verify", clean)
	wantContains(t, out, "OK:", "no damage")

	// Damaged trace: exit 2 with a damage report naming what was lost.
	out = runToolExit(t, 2, "tracecat", "-verify", damaged)
	wantContains(t, out, "DAMAGED", "corruption incident", "salvaged", "frames skipped")

	// Unreadable file: exit 1.
	garbage := filepath.Join(dir, "garbage.ormtrace")
	if err := os.WriteFile(garbage, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	runToolExit(t, 1, "tracecat", "-verify", garbage)
}

func TestCLILenientExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	_, damaged := corruptTrace(t, dir)

	// Strict mode fails fast: exit 1, no salvage.
	out := runToolExit(t, 1, "tracecat", "-count", damaged)
	wantContains(t, out, "tracecat:")

	// Lenient tracecat salvages the readable records and exits 2.
	out = runToolExit(t, 2, "tracecat", "-lenient", "-count", damaged)
	if !strings.Contains(out, "damaged but salvaged") {
		t.Errorf("lenient tracecat should report the corruption:\n%s", out)
	}

	// Strict replay through a profiler: exit 1.
	runToolExit(t, 1, "whomp", "-replay", damaged)

	// Lenient replay: the partial profile still prints, exit 2.
	out = runToolExit(t, 2, "whomp", "-replay", damaged, "-lenient")
	wantContains(t, out, "OMSG:")

	out = runToolExit(t, 2, "leap", "-replay", damaged, "-lenient")
	wantContains(t, out, "sample quality")

	out = runToolExit(t, 2, "ormprof", "translate", "-replay", damaged, "-lenient")
	wantContains(t, out, "translated")
}

func TestCLIDeadlineExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	clean, _ := corruptTrace(t, dir)

	// An immediate deadline cuts every pass short: still a report, exit 2.
	out := runToolExit(t, 2, "whomp", "-replay", clean, "-deadline", "1ns")
	wantContains(t, out, "deadline exceeded")

	// A generous deadline changes nothing: clean exit.
	runToolExit(t, 0, "whomp", "-replay", clean, "-deadline", "5m")
}

// TestCLIClusterRoundTrip drives the cluster modes through the real
// binaries: an all-in-one `ormpd -cluster -local-shards 2` daemon,
// `ormpush` streaming sessions through its router, a graceful SIGTERM
// that merges the cluster report, and an offline `ormpd -merge` over the
// same shard final dirs that must reproduce the report byte-for-byte.
func TestCLIClusterRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	clusterDir := filepath.Join(dir, "cluster")
	reportDir := filepath.Join(dir, "report")

	daemon := exec.Command(filepath.Join(bins, "ormpd"),
		"-cluster", "-local-shards", "2",
		"-listen", "127.0.0.1:0",
		"-checkpoints", clusterDir,
		"-out", reportDir,
		"-checkpoint-every", "2")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	// The daemon announces its router address (ephemeral port) on stderr.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "cluster on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		t.Fatal("daemon never announced its address")
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	for _, session := range []string{"cli-a", "cli-b", "cli-c"} {
		out := runTool(t, "ormpush",
			"-addr", addr, "-workload", "linkedlist", "-session", session, "-quiet")
		wantContains(t, out, "pushed linkedlist")
	}

	// Graceful shutdown merges the cluster report.
	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- daemon.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
	report := make(map[string][]byte)
	for _, name := range []string{"cluster.leap", "cluster.stride", "cluster.whomp"} {
		b, err := os.ReadFile(filepath.Join(reportDir, name))
		if err != nil {
			t.Fatalf("cluster report: %v", err)
		}
		report[name] = b
	}

	// The offline merge plane over the same shard final dirs reproduces
	// the report exactly.
	remergeDir := filepath.Join(dir, "remerge")
	finals := filepath.Join(clusterDir, "shard0", "final") + "," +
		filepath.Join(clusterDir, "shard1", "final")
	out := runTool(t, "ormpd", "-merge", finals, "-out", remergeDir)
	wantContains(t, out, "merged 3 session(s)")
	for name, b := range report {
		got, err := os.ReadFile(filepath.Join(remergeDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Errorf("%s: offline -merge differs from the daemon's shutdown merge", name)
		}
	}
}

// A stock single-node daemon started with -final is a valid cluster
// shard: its final states feed the offline merge plane. This is the
// multi-host deployment path, where the shards are not -local-shards.
func TestCLISingleNodeFinalStates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	finalDir := filepath.Join(dir, "final")

	daemon := exec.Command(filepath.Join(bins, "ormpd"),
		"-listen", "127.0.0.1:0",
		"-checkpoints", filepath.Join(dir, "ckpt"),
		"-out", filepath.Join(dir, "profiles"),
		"-final", finalDir)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		t.Fatal("daemon never announced its address")
	}
	go io.Copy(io.Discard, stderr)

	out := runTool(t, "ormpush",
		"-addr", addr, "-workload", "linkedlist", "-session", "solo", "-quiet")
	wantContains(t, out, "pushed linkedlist")

	// The final state is durable before the client's Bye — no shutdown
	// needed before merging it.
	if _, err := os.Stat(filepath.Join(finalDir, "solo.final")); err != nil {
		t.Fatalf("final state: %v", err)
	}
	out = runTool(t, "ormpd", "-merge", finalDir, "-out", filepath.Join(dir, "report"))
	wantContains(t, out, "merged 1 session(s)")

	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- daemon.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
}
