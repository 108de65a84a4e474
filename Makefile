GO ?= go
# bench-compare pipes through tee to keep its reports as CI artifacts;
# pipefail makes the pipeline exit with the comparison's status, not tee's.
SHELL := bash
.SHELLFLAGS := -o pipefail -c

# Fuzzing time per target; the nightly workflow raises this to 60s.
FUZZTIME ?= 30s
# Whole-system benchmark knobs (BENCHMARK.json, benchmark/): the workload
# bench-workload runs, and the git revision bench-compare measures the working
# tree against (HEAD for an uncommitted change, HEAD~1 for a committed one).
W ?= plan_paper
BENCH_BASE ?= HEAD
# Static-analysis tool pins; the targets run them via `go run pkg@version`,
# so the module cache (restored by CI) is the only install step.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race cover bench bench-smoke bench-workload bench-compare serve-smoke chaos-smoke regret-smoke rebalance-smoke staticcheck govulncheck figures figures-smoke digests examples fuzz clean ci fmt-check

all: build test

# Everything the CI workflow runs: formatting, build+vet, tests, race,
# the one-iteration benchmark smoke pass, the live-serving smoke, the
# fault-injection chaos smoke, the counterfactual-harness smoke, the
# demand-drift rebalancing smoke, and the seven examples.
ci: fmt-check build test race bench-smoke serve-smoke chaos-smoke regret-smoke rebalance-smoke examples

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the Fig. 4 benchmarks and of the serve layer benchmarks
# (the admission round trip, the registry insert and settle): catches
# bit-rot in the bench code and the exp sweep harness without paying for a
# full benchmark run.
bench-smoke:
	$(GO) test -run='^$$' -bench=Fig4 -benchtime=1x .
	$(GO) test -run='^$$' -bench='AdmissionPath|Registry' -benchtime=1x ./internal/serve

# One workload of the whole-system benchmark, untraced: the three end-to-end
# metrics and the correctness checks. `make bench-workload W=plan_scale`;
# benchmark/README.md lists the six workloads and the traced pass.
bench-workload:
	$(GO) run ./benchmark --workload $(W) --seed 1 --seconds 16 --trace 0

# What every performance claim is made with: the working tree against
# $(BENCH_BASE), each built once, two -all runs a side in the order base,
# head, head, base (the VM drifts 15-20 % over a run, so a pair shares its
# stretch of it), then -compare per pair. -compare exits nonzero when an
# end-to-end metric is worse than the base by more than its bound or more
# operations fail; both pairs are always compared, and the target fails when
# either comparison does. About twenty minutes. The base checkout, both binaries and
# the result files stay under benchmark/out/ (git-ignored, like everything the
# benchmark writes).
bench-compare:
	rm -rf benchmark/out/compare/base
	mkdir -p benchmark/out/compare/base
	git archive $(BENCH_BASE) | tar -x -C benchmark/out/compare/base
	cd benchmark/out/compare/base && $(GO) build -o ../bench-base ./benchmark
	$(GO) build -o benchmark/out/compare/bench-head ./benchmark
	benchmark/out/compare/bench-base -all -seed 1 -seconds 16 -out benchmark/out/compare/base-1.json
	benchmark/out/compare/bench-head -all -seed 1 -seconds 16 -out benchmark/out/compare/head-1.json
	benchmark/out/compare/bench-head -all -seed 2 -seconds 16 -out benchmark/out/compare/head-2.json
	benchmark/out/compare/bench-base -all -seed 2 -seconds 16 -out benchmark/out/compare/base-2.json
	status=0; \
	benchmark/out/compare/bench-head -compare benchmark/out/compare/base-1.json benchmark/out/compare/head-1.json | tee benchmark/out/compare/compare-1.txt || status=1; \
	benchmark/out/compare/bench-head -compare benchmark/out/compare/base-2.json benchmark/out/compare/head-2.json | tee benchmark/out/compare/compare-2.txt || status=1; \
	exit $$status

# Boot the live daemon in-process, fire a 1-second 8000 req/s burst through
# the open-loop load generator while the scripted fault schedule crashes and
# recovers a backend mid-trace, scrape /metrics for non-zero admissions,
# and cross-validate the rejection rate (overall and post-failure) against
# sim.Run with the same scripted failures. Both runs go through the
# daemon's one front, the sharded ingress: the first on one listener, the
# second on two SO_REUSEPORT listeners over four registry partitions, on the
# paper layout with E9's 2 Gb/s backbone, so admissions also redirect (a
# nonzero "redirected" row).
serve-smoke:
	$(GO) run ./cmd/vodload -selftest -rate 8000 -burst 1 -validate -faults testdata/faults_smoke.json
	$(GO) run ./cmd/vodload -selftest -rate 8000 -burst 1 -validate -faults testdata/faults_smoke.json -shards 4 -listeners 2 -policy least-loaded -scenario testdata/backbone_smoke.json

# The failure-drill integration test under the race detector: a scripted
# mid-trace crash with health checking, admission retry, and automatic
# re-replication, asserting single settlement, zero leaked bandwidth, and
# live-vs-sim post-failure parity. Then the per-PR stress budget (≈ 1 min):
# fifty race-detector passes over the engine's failover, drain, eviction,
# repair and exactly-once drills at one registry partition and at several,
# whose bugs so far showed up once in tens of runs. The guard before it fails the target
# when a name in the list matches no test, so a rename cannot silently drop
# a drill from the race budget.
CHAOS_RACE_TESTS := TestSharded|TestIngressChaosExactlyOnce|TestConcurrentFailDrainStorm|TestConcurrentOpenCloseStress|TestRedirect|TestDrainBackendRedirect|TestRepairParity|TestRepairer|TestFailoverAdmissionOrder
chaos-smoke:
	$(GO) test -race -run 'TestChaos' -v .
	@listed=$$($(GO) test -list '$(CHAOS_RACE_TESTS)' ./internal/serve) || exit 1; \
	for n in $$(echo '$(CHAOS_RACE_TESTS)' | tr '|' ' '); do \
		echo "$$listed" | grep -q -- "$$n" || { echo "chaos-smoke: $$n matches no test in ./internal/serve" >&2; exit 1; }; \
	done
	$(GO) test -race -count=50 -run '$(CHAOS_RACE_TESTS)' ./internal/serve

# The counterfactual-harness self-check: a tiny two-policy lockstep over one
# shared trace. -smoke asserts the reference compared against itself yields
# exactly zero divergences and zero regret, and that the genuinely different
# candidate diverges at least once — the invariants vodab's scoring leans on.
regret-smoke:
	$(GO) run ./cmd/vodab -policies static-rr,least-loaded -lambda 60 -runs 2 -smoke > /dev/null

# The demand-drift drill under the race detector: the same mid-trace
# popularity rotation replayed against a static daemon and one running the
# online placement rebalancer, asserting the rebalancer migrates replicas
# toward the shifted head, lowers post-shift rejections, stays inside its
# copy-bandwidth budget, and leaks nothing after the drain.
rebalance-smoke:
	$(GO) test -race -run 'TestRebalance' -v .

# Static analysis beyond go vet, at pinned tool versions. Both tools resolve
# through the Go module cache, so CI's setup-go cache makes repeat runs
# cheap; neither is vendored into the tree.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Regenerate every paper figure (tables + ASCII charts + CSV series).
figures:
	$(GO) run ./cmd/vodbench -fig all -runs 20 -csv results/csv | tee results/vodbench-full.txt

# Nightly smoke of the figure generators: every figure once, one
# replication per point, no artifacts written into the tree.
figures-smoke:
	$(GO) run ./cmd/vodbench -fig all -runs 1

# Rewrite the pinned outputs: vodbench's quick output, which
# `go test ./cmd/vodbench` compares byte for byte at one worker and at four,
# and vodplace's -verbose stdout and -out plan file at the defaults, which
# `go test ./cmd/vodplace` compares. Run it only for a change that means to
# move the figures or the plan, and say why in the commit.
DIGEST := cmd/vodbench/testdata/all_quick_seed42.txt
PLACE_DIGEST := cmd/vodplace/testdata
digests:
	$(GO) run ./cmd/vodbench -fig all -quick -seed 42 > $(DIGEST).tmp
	mv $(DIGEST).tmp $(DIGEST)
	$(GO) run ./cmd/vodplace -verbose > $(PLACE_DIGEST)/verbose.txt.tmp
	mv $(PLACE_DIGEST)/verbose.txt.tmp $(PLACE_DIGEST)/verbose.txt
	$(GO) run ./cmd/vodplace -out $(PLACE_DIGEST)/plan.json > /dev/null

# Run every example once; each exits nonzero on an error. Six of the seven
# build or read a core.Layout, so this catches an API change that leaves an
# example compiling but failing.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement-planner
	$(GO) run ./examples/rejection-sweep
	$(GO) run ./examples/scalable-bitrate
	$(GO) run ./examples/failure-recovery
	$(GO) run ./examples/dynamic-replication
	$(GO) run ./examples/hierarchical-sites

# Every fuzz target in the module for FUZZTIME each, found by `go test -list`
# so a new target is fuzzed without an edit here.
fuzz:
	@pkgs=$$($(GO) list ./...) || exit 1; \
	for pkg in $$pkgs; do \
		list=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for f in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz $$f in $$pkg"; \
			$(GO) test -run='^$$' -fuzz="^$$f\$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

clean:
	rm -f cover.out
