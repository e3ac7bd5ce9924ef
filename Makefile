# Pre-merge check for this repository. `make ci` is the documented gate:
# it checks formatting, vets every package, runs the full test suite
# under the race detector (the determinism tests in parallel_test.go
# double as the parallel-engine oracle; the round-trip tests in
# solvefile_test.go pin the file formats to bit-identical reports),
# smoke-runs the benchmarks, proves `mpcgraph list` enumerates the
# algorithm registry and that every registered (Problem, Model) pair has
# a working benchmark entry, checks that BENCH_PR10.json matches a fresh
# quick sweep, runs every program under examples/, pipes `mpcgraph gen`
# into `mpcgraph solve` for one scenario per problem, boots a real mpcgraphd daemon and proves
# the deterministic result cache serves bit-identical hits for every
# problem before draining it with SIGTERM, SIGKILLs a daemon mid-queue
# and proves the persistent cache tier recovers every completed result
# bit-identically with zero recomputation, and builds every Go code
# block of README.md and docs/service.md against the current API. The
# lint gate is the type-checked static-analysis suite of
# internal/analysis (see docs/analysis.md): determinism, lock
# discipline, and error hygiene over typed ASTs, tests included.
#
# Targets:
#   make ci         - fmt + vet + lint + race tests + fuzz/benchmark/registry/CLI/service/scale/docs smoke
#   make fmt        - fail if any file needs gofmt
#   make lint       - static-analysis suite (internal/analysis), tests included
#   make lint-fast  - same suite, production files only (no test files)
#   make fuzz-smoke - short -fuzz run of every graphio structured-reader fuzzer
#   make test       - fast test suite
#   make race       - full test suite under -race
#   make cover      - enforce the per-package coverage floors of
#                     coverage_floors.txt (internal/service, internal/cli)
#   make bench      - full benchmark pass with allocation counts
#   make tables     - regenerate the experiment tables (text) at quick scale
#   make json       - machine-readable experiment rows (BENCH_*.json input)
#   make bench-json - run the smoke sweep with -json and write BENCH_PR10.json
#   make bench-json-check - fail unless BENCH_PR10.json matches a fresh sweep
#   make examples-smoke - run every examples/ program, fail on a non-zero exit
#   make list-smoke - mpcgraph list + bench -check registry/benchmark coverage
#   make cli-smoke  - mpcgraph gen|solve pipe, one scenario per problem
#   make service-smoke - boot mpcgraphd, one job per problem, cache-hit
#                     bit-identity, metrics, graceful SIGTERM drain,
#                     429 + Retry-After on a saturated daemon
#   make chaos-smoke - SIGKILL mpcgraphd mid-queue, restart on the same
#                     cache dir, prove crash recovery against the goldens
#   make scale-smoke - ~10⁷-edge R-MAT write→read→solve under pinned
#                     wall-time and peak-RSS ceilings (alias: make scale);
#                     ci runs a race-instrumented ~10⁶-edge short variant
#   make docs-check - compile every ```go block of README.md and docs/service.md

GO ?= go

# cli-smoke relies on gen|solve pipelines; without pipefail a failing
# gen would be masked by solve accepting empty stdin as an empty graph.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: ci fmt vet lint lint-fast test race cover bench bench-smoke bench-json bench-json-check examples-smoke fuzz-smoke list-smoke cli-smoke service-smoke chaos-smoke scale-smoke scale-smoke-short scale allocs-guard docs-check tables json

ci: fmt vet lint race cover allocs-guard fuzz-smoke bench-smoke list-smoke bench-json-check examples-smoke cli-smoke service-smoke chaos-smoke scale-smoke-short docs-check

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./internal/analysis/cmd/lint .

# The same analyzers without test files: a faster inner-loop gate when
# iterating on production code.
lint-fast:
	$(GO) run ./internal/analysis/cmd/lint -tests=false .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Statement-coverage floors for the packages whose behavior is pinned
# by end-to-end suites (the daemon and its CLI): each package listed in
# coverage_floors.txt must meet its checked-in minimum.
cover:
	@fail=0; \
	while read -r pkg floor; do \
		case "$$pkg" in ""|\#*) continue;; esac; \
		pct=$$($(GO) test -cover "$$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg (test failure?)"; fail=1; continue; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" = 1 ]; then \
			echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		else \
			echo "cover: $$pkg $$pct% BELOW floor $$floor%"; fail=1; \
		fi; \
	done < coverage_floors.txt; \
	exit $$fail

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/graph/ ./internal/mpc/ ./internal/mis/

# The perf trajectory artifact: the E1..E18 smoke sweep in machine-
# readable form, committed as BENCH_PR10.json so successive PRs can diff
# audited costs (earlier snapshots live in git history). Regenerate
# after any intentional cost change. The sweep goes to a temp file first,
# so a failed run leaves the committed file intact.
bench-json:
	$(GO) run ./cmd/mpcgraph bench -quick -trials 1 -json > BENCH_PR10.json.tmp || { rm -f BENCH_PR10.json.tmp; exit 1; }
	mv BENCH_PR10.json.tmp BENCH_PR10.json

# Fails when a fresh quick sweep differs from the committed
# BENCH_PR10.json: an audited cost moved and the artifact was not
# regenerated.
bench-json-check:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/mpcgraph bench -quick -trials 1 -json > "$$tmp" || { rm -f "$$tmp"; exit 1; }; \
	if cmp "$$tmp" BENCH_PR10.json; then \
		rm -f "$$tmp"; echo "bench-json-check: BENCH_PR10.json matches a fresh sweep"; \
	else \
		rm -f "$$tmp"; echo "bench-json-check: BENCH_PR10.json is stale; run make bench-json"; exit 1; \
	fi

# Every examples/ program validates its own results and exits non-zero
# when a check fails.
examples-smoke:
	@for dir in examples/*/; do \
		echo "examples-smoke: $${dir%/}"; \
		$(GO) run "./$${dir%/}" > /dev/null || exit 1; \
	done

# Short-run fuzz smoke of the structured graph readers, so the strict
# parse/error grammars of docs/formats.md stay exercised pre-merge
# (each fuzzer also runs its corpus as ordinary seed tests in `race`).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadWEL -fuzztime=3s ./internal/graphio/
	$(GO) test -run=NONE -fuzz=FuzzReadDIMACS -fuzztime=3s ./internal/graphio/
	$(GO) test -run=NONE -fuzz=FuzzReadMETIS -fuzztime=3s ./internal/graphio/
	$(GO) test -run=NONE -fuzz=FuzzReadMatrixMarket -fuzztime=3s ./internal/graphio/

list-smoke:
	$(GO) run ./cmd/mpcgraph list
	$(GO) run ./cmd/mpcgraph bench -check

# One gen|solve pipe per problem, each through a different scenario and
# on-disk format, so the whole (catalog, format, registry) surface stays
# wired. Weighted matching ships through the weighted edge list.
cli-smoke:
	$(GO) build -o /tmp/mpcgraph-ci ./cmd/mpcgraph
	/tmp/mpcgraph-ci list > /dev/null
	/tmp/mpcgraph-ci gen -scenario gnp -n 600 -seed 1 -format el -out - | /tmp/mpcgraph-ci solve -problem mis -in - -format el -json > /dev/null
	/tmp/mpcgraph-ci gen -scenario rmat -n 600 -seed 2 -format dimacs -out - | /tmp/mpcgraph-ci solve -problem maximal-matching -in - -format dimacs -json > /dev/null
	/tmp/mpcgraph-ci gen -scenario chung-lu -n 600 -seed 3 -format metis -out - | /tmp/mpcgraph-ci solve -problem approx-matching -in - -format metis -json > /dev/null
	/tmp/mpcgraph-ci gen -scenario ring-of-cliques -n 600 -seed 4 -format mm -out - | /tmp/mpcgraph-ci solve -problem one-plus-eps-matching -in - -format mm -json > /dev/null
	/tmp/mpcgraph-ci gen -scenario high-girth -n 600 -seed 5 -format el -out - | /tmp/mpcgraph-ci solve -problem vertex-cover -model congested-clique -in - -format el -json > /dev/null
	/tmp/mpcgraph-ci gen -scenario weighted-gnp -n 400 -seed 6 -format wel -out - | /tmp/mpcgraph-ci solve -problem weighted-matching -in - -format wel -json > /dev/null
	rm -f /tmp/mpcgraph-ci

# The daemon acceptance gate: a race-instrumented mpcgraphd on an
# ephemeral port, one cold job plus one cached re-submit per problem
# (bit-identity asserted on the wire), metrics counters, then a
# graceful SIGTERM drain with required zero exit.
service-smoke:
	$(GO) build -race -o /tmp/mpcgraphd-ci ./cmd/mpcgraphd
	$(GO) run ./internal/tools/servicesmoke -bin /tmp/mpcgraphd-ci
	rm -f /tmp/mpcgraphd-ci

# The crash-safety gate: fill a persistent-cache daemon's queue, SIGKILL
# it mid-drain, restart on the same directory, and require every
# persisted result to come back as a disk-tier hit bit-identical to
# testdata/golden_reports.json with zero recomputation — then corrupt an
# entry in place and require quarantine + self-healing. Deliberately NOT
# race-instrumented: the kill must land on the production binary's
# timing, and `race` already covers the data-race surface.
chaos-smoke:
	$(GO) build -o /tmp/mpcgraphd-chaos-ci ./cmd/mpcgraphd
	$(GO) run ./internal/tools/chaossmoke -bin /tmp/mpcgraphd-chaos-ci
	rm -f /tmp/mpcgraphd-chaos-ci

# The cold-path scale gate: generate a ~10⁷-edge R-MAT instance, write
# it to disk, read it back, solve MIS, and fail unless wall time and
# peak RSS stay under the pinned ceilings (rationale in
# docs/performance.md). `make ci` runs the race-instrumented short
# variant at ~10⁶ edges with proportionally relaxed ceilings (the race
# runtime multiplies both time and memory); the full-size production
# gate is `make scale-smoke` (alias `make scale`).
scale-smoke:
	$(GO) run ./internal/tools/scalesmoke

scale: scale-smoke

scale-smoke-short:
	$(GO) run -race ./internal/tools/scalesmoke -edges 1000000 -wall 30s -rss-mb 512

# The allocation-ceiling guards skip themselves under -race (the race
# runtime allocates on its own behalf), so ci runs them explicitly
# without instrumentation; see docs/performance.md.
allocs-guard:
	$(GO) test -run AllocsCeiling ./internal/graph/ ./internal/graphio/ ./internal/mpc/ ./internal/service/

docs-check:
	$(GO) run ./internal/tools/readmecheck README.md docs/service.md

tables:
	$(GO) run ./cmd/mpcgraph bench -quick -trials 1

json:
	$(GO) run ./cmd/mpcgraph bench -quick -trials 1 -json
