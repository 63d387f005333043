GO ?= go

.PHONY: all build test race vet docs bench-smoke bench-test bench-pair test-chaos fuzz-smoke loc ci

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The runtime, transport, stream, wal, recovery, rsm, fd and obs packages
# carry the concurrency-sensitive code (the node's typed inbox — a
# transport.Queue — with its blocked-producer and Close paths, delivery
# streams, flow-control wakeups, background WAL fsync, restart paths,
# applier/snapshot-store locking, heartbeat suspicion reporting, lock-free
# histograms scraped mid-run); member carries the view history consulted
# from driver callbacks; the root package is the driver of the runtime
# nodes and exercises it — including dynamic membership — in memory and
# over TCP loopback (TestFacadeConformance, TestGroup*, TestTCPNode*).
race:
	$(GO) test -race ./internal/runtime/... ./internal/stream/... ./internal/wal/... ./internal/recovery/... ./internal/rsm/... ./internal/transport/... ./internal/fd/... ./internal/obs/... ./internal/payload/... ./internal/member/... .

# Chaos soak: the fixed-seed short sweep of the fault-injection harness
# (six scenario families plus randomized schedules, both stacks, every
# atomic broadcast property checked per run) — bounded well under a
# minute so it can gate every push. The nightly-style deep sweep is the
# same target with CHAOS_SEEDS=200 (or any seed count).
test-chaos:
	$(GO) test ./internal/chaos -run 'TestChaosSeedSweep|TestChaosRandomSchedules' -count=1 -timeout 10m -v

vet:
	$(GO) vet ./...

# Fuzz smoke: a bounded run of each of the eleven fuzz targets on top of its
# checked-in seed corpus (testdata/fuzz/...). Plain `go test` already
# replays the seeds; this target actually mutates for a short budget so
# the corpus can grow when a new crasher appears. (`go test -fuzz` takes
# one target and one package per run.)
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzSnapshotOpen$$' -fuzztime=10s ./internal/rsm
	$(GO) test -run=NONE -fuzz='^FuzzKVApply$$' -fuzztime=10s ./internal/rsm
	$(GO) test -run=NONE -fuzz='^FuzzSegmentScan$$' -fuzztime=10s ./internal/wal
	$(GO) test -run=NONE -fuzz='^FuzzUnmarshalFrame$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzRelayFrame$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzDigestFrames$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzRecoverFrames$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzPayloadStore$$' -fuzztime=10s ./internal/payload
	$(GO) test -run=NONE -fuzz='^FuzzPool$$' -fuzztime=10s ./internal/pool
	$(GO) test -run=NONE -fuzz='^FuzzReceive$$' -fuzztime=10s ./internal/head
	$(GO) test -run=NONE -fuzz='^FuzzFrameReader$$' -fuzztime=10s ./internal/transport

# Benchmark smoke: compile and run every benchmark for exactly one
# iteration (BenchmarkFigures is the first point of every registered
# abbench figure), plus one run of the abbench CLI itself — flag parsing,
# rendering and report writing — and one lifecycle-trace dump, so
# benchmark and observability code cannot rot silently. Figure coverage
# is TestEveryFigure's job, not a hand-kept list here.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	report=$$(mktemp) && $(GO) run ./cmd/abbench -fig pipeline -reps 1 -warmup 500ms -measure 1s -json $$report; status=$$?; rm -f $$report; exit $$status
	$(GO) run ./cmd/abbench -trace-sample 64

# The wall-clock benchmark (bench/) is a separate module importing the
# internal packages, so the root `go test ./...` never compiles it: vet
# and test it here so an internal API change cannot break it silently.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Paired wall-clock comparison of this tree against another commit — how a
# performance claim is measured here (docs/BENCHMARKS.md, "Paired runs"):
#   make bench-pair BASE=<sha> [WORKLOAD=tuned-tcp] [RUNS=10]
# BASE is checked out into a git worktree under .bench_build/, each tree
# builds and runs its own bench/ (one run per invocation, seeds 1..RUNS),
# the two alternate which goes first, then `bench/run.sh -compare` judges
# the merged result files and the per-pair values are listed for the
# "wins nine pairs of ten" rule. Without WORKLOAD all four run. Needs jq.
RUNS ?= 10
PAIR := .bench_build/pair
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<sha> [WORKLOAD=<name>] [RUNS=10]"; exit 2; }
	@command -v jq >/dev/null || { echo "bench-pair merges the per-run result files with jq"; exit 2; }
	-git worktree remove --force $(PAIR)/base 2>/dev/null
	rm -rf $(PAIR) && mkdir -p $(PAIR)/runs
	git worktree add --detach $(PAIR)/base $(BASE)
	@set -e; for i in $$(seq 1 $(RUNS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then tree=$(PAIR)/base; else tree=.; fi; \
			echo "pair $$i: $$side"; \
			bash $$tree/bench/run.sh $(if $(WORKLOAD),-workload $(WORKLOAD)) -seed $$i -runs 1 \
				-out $(CURDIR)/$(PAIR)/runs/$$side-$$i.json >/dev/null; \
		done; \
	done
	git worktree remove --force $(PAIR)/base
	@for side in base head; do \
		jq -s '{descriptor: .[0].descriptor, results: map(.results) | add}' $(PAIR)/runs/$$side-*.json > $(PAIR)/$$side.json; \
	done
	@jq -rs '.[0].results as $$b | .[1].results as $$h | range($$b | length) as $$i | $$b[$$i].metrics | keys[] as $$m | "\($$b[$$i].workload) seed \($$b[$$i].seed) \($$m): base \($$b[$$i].metrics[$$m].value) head \($$h[$$i].metrics[$$m].value)"' $(PAIR)/base.json $(PAIR)/head.json
	bash bench/run.sh -compare $(PAIR)/base.json $(PAIR)/head.json

# Documentation gate: gofmt-clean tree, documented exported symbols in
# modab.go, package comments on every internal package, the import
# ratchets of TestEnginesImportNoHeadInternals — no internal/batch or
# internal/dissem in the engines; no internal/stack, internal/tail or
# internal/head in the round core internal/ct; no internal/consensus in
# the monolithic engine; no internal/netsim in the facade; no
# internal/runtime outside the root package — the codec boundary of
# TestEnginesEncodeNoTailFrames (no engine encodes or decodes a tail or
# head frame) and no broken local markdown links (mirrors the CI docs job).
docs:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test -run 'TestExportedSymbolsDocumented|TestInternalPackagesHaveComments|TestEnginesImportNoHeadInternals|TestEnginesEncodeNoTailFrames|TestMarkdownLinks' .

# Size of the implementation: non-test Go lines outside bench/ (comments
# included) — the count CHANGES.md quotes per PR. The ROADMAP wants it to
# end each round lower, so this is a ratchet: the target prints the count
# and fails above LOC_CEILING; a PR that shrinks the tree lowers the
# ceiling to its new count.
LOC_CEILING := 18970
loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l); \
	echo $$n; \
	test $$n -le $(LOC_CEILING) || { echo "make loc: $$n non-test Go lines exceed LOC_CEILING=$(LOC_CEILING)"; exit 1; }

ci: build vet test race docs bench-smoke bench-test test-chaos loc
