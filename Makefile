# CI and humans invoke the same targets (see .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race bench benchcheck kernelbench conebench searchbench satbench reorderbench corpussmoke servesmoke faultsmoke loadtest lint lintgate staticcheck staticcheck-install docgate fmt benchsuite

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short smoke pass over every benchmark: one iteration each, no tests.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The repository benchmark (benchmark/, see BENCHMARK.json) is its own
# Go module built against the flow API through `replace repro => ../`,
# so the root `go test ./...` never compiles it. Vet and test it here so
# an API change that breaks it fails CI, not the next benchmark run.
benchcheck:
	$(GO) -C benchmark vet ./... && $(GO) -C benchmark test ./...

# Kernel benchmark smoke: scalar vs bit-parallel sim and the BDD engine,
# persisted as BENCH_2.json (uploaded as a CI artifact).
kernelbench:
	$(GO) run ./cmd/benchsuite -bench-out BENCH_2.json

# Cone-table benchmark smoke: the cached-cone exhaustive phase search vs
# the naive per-mask Apply+Estimate path on the synth12 twin, persisted
# as BENCH_3.json (uploaded as a CI artifact). Exits non-zero if the two
# scorers disagree, the winner varies with worker count, or the speedup
# falls below 100x.
conebench:
	$(GO) run ./cmd/benchsuite -cone-bench-out BENCH_3.json

# Search-strategy benchmark smoke: per-candidate full rescore vs
# incremental gray-code Flip on the synth12 twin plus the
# beyond-exhaustive strategies on the wide twins, persisted as
# BENCH_4.json (uploaded as a CI artifact). Exits non-zero if the
# gray-code or branch-and-bound winner disagrees with the reference
# scan at any worker count, if the per-candidate flip speedup falls
# below 10x, if a heuristic beats the exact branch-and-bound at k=24,
# or if annealing fails to strictly beat the MinPower heuristic at k=32.
searchbench:
	$(GO) run ./cmd/benchsuite -search-bench-out BENCH_4.json

# Saturation benchmark: the wide vs blocked simulation kernels across
# block sizes and worker counts on the x1/wide32 twins plus a
# low-activity twin, persisted as BENCH_7.json (uploaded as a CI
# artifact). Exits non-zero if the blocked kernel's Reports diverge
# from the scalar oracle anywhere in the (Seed, Shards, Workers)
# matrix, if the blocked kernel falls below 3x the wide kernel's
# throughput on x1, or if activity gating skips no more than half the
# gate evaluations on the low-activity twin.
satbench:
	$(GO) run ./cmd/benchsuite -satbench-out BENCH_7.json

# BDD reordering benchmark: the Table-1 corpus plus the x4 twin under
# the default exact-engine node budget with in-place dynamic reordering
# (Rudell sifting), persisted as BENCH_9.json (uploaded as a CI
# artifact). Exits non-zero if any corpus row differs across worker
# counts {1,2,8}, if the largest circuit completing on the exact engine
# does not beat x3's 235 PIs, if fewer than two of BENCH_8's degraded
# Table-1 circuits are rescued to exact-sifted on the frontier ladder,
# or if a resubmission of the corpus re-enters the flow instead of
# hitting the content-addressed cache.
reorderbench:
	$(GO) run ./cmd/benchsuite -reorder-bench-out BENCH_9.json

# Corpus smoke: emit the small public twins as BLIF, stream the
# directory through the concurrent corpus engine (untimed and timed
# flows), and gate on row agreement with the direct in-memory gen-twin
# flow (-check-twins): sizes must match exactly, measured/estimated
# power to float-noise tolerance. Exits non-zero on any disagreement,
# parse failure, or error row.
corpussmoke:
	rm -rf corpus-smoke
	$(GO) run ./cmd/genbench -dir corpus-smoke -only apex7,frg1,x1
	$(GO) run ./cmd/dominoflow -dir corpus-smoke -vectors 512 -workers 4 -check-twins -jsonl corpus-smoke/rows.jsonl
	$(GO) run ./cmd/dominoflow -dir corpus-smoke -table 2 -vectors 512 -workers 2 -check-twins

# Service smoke: emit the small public twins as BLIF and run the dominod
# end-to-end harness over real HTTP against them. Gates on the streamed
# JSONL rows byte-matching a direct flow.RunCorpus run (wall-clock
# excepted), a repeat submission being served entirely from the
# content-addressed cache (the flow is not re-entered), one 429 +
# Retry-After under a full queue, and one graceful drain finishing its
# in-flight job. Writes the HTTP-streamed rows to serve-smoke/rows.jsonl
# (uploaded as a CI artifact).
servesmoke:
	rm -rf serve-smoke
	$(GO) run ./cmd/genbench -dir serve-smoke -only apex7,frg1,x1
	$(GO) run ./cmd/dominod -smoke serve-smoke -smoke-out serve-smoke/rows.jsonl

# Chaos smoke: dominod with fault injection on, driven under the race
# detector through hostile traffic — configure-time panics, circuits
# pinned in the sim loop until the per-circuit timeout cancels them,
# exact-BDD jobs under an impossible node budget, and client DELETE
# cancellations — then the Table-1 twin corpus under a real BDD node
# budget. Gates on panics isolating into error rows, pinned circuits
# timing out cooperatively, blown budgets degrading (never erroring),
# both drains finishing clean, and the goroutine count returning to
# baseline. Writes BENCH_8.json (largest circuit completed + rows/sec
# with budgets on; uploaded as a CI artifact).
faultsmoke:
	$(GO) run -race ./cmd/dominod -faultsmoke -faultsmoke-out BENCH_8.json

# Service load test: sustained jobs/min over real HTTP against an
# in-process dominod, persisted as BENCH_6.json (uploaded as a CI
# artifact). Exits non-zero if the cached path (identical submissions
# answered from the content-addressed cache) falls below 1000 jobs/min;
# also records a cold-path figure (distinct configs, every job runs the
# flow).
loadtest:
	$(GO) run ./cmd/dominod -loadtest -loadtest-out BENCH_6.json

# Static-analysis ladder, cheapest first: gofmt (formatting), docgate
# (package docs), go vet (stdlib checks), dominolint (repo contracts:
# determinism, cache keys, budget polling — see internal/lint), then
# staticcheck when installed. dominolint findings are persisted to
# dominolint-findings.txt (uploaded as a CI artifact, empty when clean).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@$(MAKE) --no-print-directory docgate
	$(GO) vet ./...
	$(GO) run ./cmd/dominolint -out dominolint-findings.txt ./...
	@$(MAKE) --no-print-directory staticcheck

# staticcheck rides along when present; the version is pinned here so
# local installs and CI agree. The binary cannot live in go.mod (the
# build environment has no module network access), so the gate degrades
# to a hint instead of a hard failure when the tool is missing.
STATICCHECK_VERSION ?= 2025.1.1

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# Proves the dominolint gate is live: the seeded fixture carries
# deliberate walltime and detrange violations, so dominolint must exit 1
# (findings) on it — exit 0 means the gate is dead, exit 2 means the
# checker itself broke.
lintgate:
	@$(GO) run ./cmd/dominolint -dir internal/lint/testdata/src/seeded/flow; \
	status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "lintgate: expected exit 1 (findings) on the seeded fixture, got $$status"; exit 1; \
	fi; \
	echo "lintgate: seeded violations detected, the gate is live"

# Every package must carry a doc comment ("Package x ..." for libraries,
# "Command x ..." for binaries) so the godoc surface stays complete.
docgate:
	@missing=0; \
	for d in internal/*/ cmd/*/; do \
		if ! grep -qE '^// (Package|Command) ' $$d*.go 2>/dev/null; then \
			echo "docgate: $$d has no package doc comment"; missing=1; \
		fi; \
	done; \
	[ $$missing -eq 0 ] || exit 1

fmt:
	gofmt -w .

# Full batch sweep; writes results.md / results.json under ./results.
benchsuite:
	$(GO) run ./cmd/benchsuite -out results
