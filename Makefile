# Developer / CI entry points. Tier-1 is what every PR must keep green;
# test-race (plus vet and fuzz-short) is the tier-2 check for the concurrent
# pipeline stages and the binary decoders; test-soak drives every workload
# through every fault class (corruption, truncation, field flips, panics,
# stalls) and must never hang, leak, or let a panic escape.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-race test-short test-soak test-soak-race bench bench-json bench-allocs vet lint fuzz-short experiments ci loc reach

# Pinned linter versions — keep in sync with .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

all: build test

build:
	$(GO) build ./...

# Tier-1: the gate every change must pass (see ROADMAP.md).
test: build
	$(GO) test ./...

# Tier-2: race-detect the parallel pipeline — the sharded/broadcast fan-out
# stages and their consumers — plus the trace codec, the CLI plumbing, and
# the networked service layer (server, sessions, client, checkpoints), then
# style checks and a short fuzz of every binary decoder. Run this for any
# change touching internal/profiler, internal/whomp, internal/leap,
# internal/stride, internal/tracefmt, internal/cliutil, internal/serve, or
# internal/checkpoint.
test-race: vet
	$(GO) test -race ./internal/profiler/... ./internal/whomp/... \
		./internal/leap/... ./internal/stride/... ./internal/decomp/... \
		./internal/tracefmt/... ./internal/cliutil/... \
		./internal/serve/... ./internal/checkpoint/...
	$(MAKE) fuzz-short

# Fault-tolerance soak: every workload × every fault class (corrupt byte,
# truncation, field flip, producer/worker panic, stall + deadline) through
# the paths the tools run (cliutil.Events and trace.DrainContext into the
# NewParallel profilers), plus the network soak (daemon kill/restart with
# resume, connection resets, stalled reads, partial writes, refused
# connections) and the cluster soak (shard and router kill/restart
# mid-stream with byte-identical merged reports, flapping/slow/partitioned
# shards), with goroutine-leak checks. Run this for any change touching
# the error model, tracefmt resync, the drain, cliutil, or the service
# layer.
test-soak: build
	$(GO) test -run 'TestSoak' -timeout 600s -v .

# The soak suite again, under the race detector and with test order
# shuffled: migrations, router failover, and admin replication are
# multi-goroutine dances whose bugs hide in schedules a plain run never
# explores. Shuffling catches cross-test state leakage; the printed seed
# reproduces an ordering.
test-soak-race: build
	$(GO) test -race -shuffle=on -run 'TestSoak' -timeout 900s .

# Everything a CI run should gate on: tier-1, tier-2, static analysis,
# the reachability ledger, the zero-alloc hot-path gate, and the soaks
# (plain, then race+shuffle).
ci: test test-race lint reach bench-allocs test-soak test-soak-race

# Static analysis + known-vulnerability scan. The tools are not vendored;
# if they are missing locally the target says how to get them and skips
# (CI installs the pinned versions, so the gate is real there).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping" \
			"(go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping" \
			"(go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Skip the CLI integration tests (they build all binaries).
test-short:
	$(GO) test -short ./...

# Hot-path + end-to-end benchmarks (see docs/PERFORMANCE.md for the
# methodology and the maintained baseline table). -count defaults to 6 so
# the output feeds straight into benchstat; BENCH_OUT captures the run for
# comparison, e.g.
#   make bench BENCH_OUT=before.txt
#   ...change...
#   make bench BENCH_OUT=after.txt && benchstat before.txt after.txt
# To emit benchmark JSON for dashboards: make bench-json (BENCH_hotpath.json).
BENCH ?= BenchmarkEventLoop|BenchmarkIngestEndToEnd|BenchmarkWorkloadIngest|BenchmarkOptimizePipeline|BenchmarkClusterIngest
BENCH_COUNT ?= 6
BENCH_OUT ?= /dev/stdout
bench:
	$(GO) test -run=xxx -bench='$(BENCH)' -benchmem -count=$(BENCH_COUNT) \
		-timeout 60m . | tee $(BENCH_OUT)

# Same suite once, as `go test -json` output, for machine consumption.
bench-json:
	$(GO) test -run=xxx -bench='$(BENCH)' -benchmem -timeout 60m -json . \
		> BENCH_hotpath.json

# The zero-alloc gate: fails if the steady-state event loop (OMC
# translation into a discard SCC, and into a profiler.Fanout of two discard
# SCCs as the daemon fans out; alloc/free churn included) performs any
# per-event heap allocation, or if the soabtree steady state allocates.
# WHOMP/LEAP/stride consumption is not covered (ROADMAP item 2).
# Cheap enough to run on every CI push — catches alloc regressions at the
# PR that introduces them, not at the next quarterly profile.
bench-allocs:
	$(GO) test -run 'TestEventLoopSteadyStateAllocs' -count=1 .
	$(GO) test -run 'TestZeroAllocSteadyState' -count=1 ./internal/soabtree/
	$(GO) test -run 'TestSketchUpdateZeroAlloc' -count=1 ./internal/sketch/

# Regenerate the before/after optimization tables (the "Closing the loop"
# section of EXPERIMENTS.md): one `ormprof optimize` run per workload —
# the seven Table 1 benchmarks plus the two layout showcases. Output is
# deterministic (byte-identical for any -workers), so diffs against the
# committed tables are real changes, not noise.
experiments: build
	@for w in 164.gzip 175.vpr 181.mcf 186.crafty 197.parser 256.bzip2 300.twolf hotcold chase; do \
		echo "== $$w =="; \
		$(GO) run ./cmd/ormprof optimize -workload $$w -plan none; \
		echo; \
	done

vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# Short fuzz pass over every decoder that parses untrusted bytes: the trace
# reader, the profile/grammar decoders, grammar snapshot restore, the
# ORMP/1 ingest paths (a live server connection, and the router's routing
# path in front of a live shard), and checkpoint restore. ~$(FUZZTIME) per
# target. Minimizing one interesting checkpoint runs a full restore per
# candidate, so that target caps minimization at 2s; the default minute
# would use up the whole pass.
fuzz-short:
	$(GO) test -fuzz='^FuzzReader$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt/
	$(GO) test -fuzz='^FuzzReaderResync$$' -fuzztime=$(FUZZTIME) ./internal/tracefmt/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/tracefmt/
	$(GO) test -fuzz=FuzzReadProfile -fuzztime=$(FUZZTIME) ./internal/whomp/
	$(GO) test -fuzz=FuzzReadProfile -fuzztime=$(FUZZTIME) ./internal/leap/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/sequitur/
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/sequitur/
	$(GO) test -fuzz=FuzzSnapshotRestore -fuzztime=$(FUZZTIME) ./internal/sequitur/
	$(GO) test -fuzz=FuzzTreeOps -fuzztime=$(FUZZTIME) ./internal/soabtree/
	$(GO) test -fuzz=FuzzPlanReader -fuzztime=$(FUZZTIME) ./internal/plan/
	$(GO) test -fuzz='^FuzzSession$$' -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz='^FuzzRouter$$' -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz='^FuzzRouterTable$$' -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz='^FuzzCheckpointRestore$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/serve/
	$(GO) test -fuzz='^FuzzCountMin$$' -fuzztime=$(FUZZTIME) ./internal/sketch/
	$(GO) test -fuzz='^FuzzBloom$$' -fuzztime=$(FUZZTIME) ./internal/sketch/

# Non-test Go lines per package directory, then per top-level directory,
# then in total. perfbench/ is excluded: it is the benchmark's own module.
# Run it on two checkouts and diff the outputs to report net lines per area.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -print0 | \
		xargs -0 wc -l | grep -v ' total$$' | \
		awk '{ d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); \
			pkg[d] += $$1; split(d, p, "/"); top[p[1] "/"] += $$1; all += $$1 } \
		END { for (d in pkg) printf "%7d  %s\n", pkg[d], d; \
			for (t in top) printf "%7d  %s (all)\n", top[t], t; \
			printf "%7d  total\n", all }' | sort -k2

# Reachability ledger: links every cmd/, examples/ and perfbench binary with
# inlining off and fails if a non-test function under internal/ is linked
# by none of them and has no owner in reach.allow (a test, a benchmark with
# an EXPERIMENTS.md row, or the test harness), or if an allowlist entry is
# reached or gone.
reach:
	$(GO) run ./internal/tools/reach
