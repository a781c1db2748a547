GO ?= go

.PHONY: check fmt contracts bench test bench-compare trace-smoke spatiald-smoke smoke conformance conformance-golden conformance-full experiments-refresh staticcheck perfbench-check loc

# check is the full gate: build, formatting, vet, staticcheck, the
# race-enabled test suite, the execution-contract matrix the race build
# skips, the trace-artifact smoke test, the spatiald daemon smoke test, the
# tuner/graph/backend smokes, the benchmark module's vet and short tests,
# the quick conformance run and its byte-for-byte verdict check.
check:
	$(GO) build ./...
	$(MAKE) fmt
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(GO) test -race ./...
	$(MAKE) contracts
	$(MAKE) trace-smoke
	$(MAKE) spatiald-smoke
	$(MAKE) smoke SUITE=tune
	$(MAKE) smoke SUITE=graph
	$(MAKE) smoke SUITE=backend
	$(MAKE) perfbench-check
	$(MAKE) conformance QUICK=1
	$(MAKE) conformance-golden

test:
	$(GO) test ./...

# perfbench-check vets and short-tests the benchmark (perfbench/). It is
# its own module, so the root `go build ./...` and `go test ./...` never
# build it; this catches a change to an internal API it calls.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# loc prints the non-test Go lines of every package and their total, the
# benchmark module (perfbench/) left out. A change's net lines per package
# are the difference of two runs, one at each commit.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*' -exec dirname {} \; | sort -u | \
	while read -r d; do \
		printf '%7d %s\n' "$$(find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$${d#./}"; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

# fmt fails, listing the files, when any Go file in the tree is not
# gofmt-formatted; `gofmt -w <file>` fixes one.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmt: not gofmt-formatted:" >&2; echo "$$out" >&2; exit 1; fi

# contracts runs the execution-contract matrix and the five tests that
# check it, which skip themselves under -race (the race detector makes
# their sweeps ~10x slower) and so run in no race-enabled job: every
# experiment's output and message stream byte-identical across shard
# counts, batch mode, the worker count, a trace sink and the result cache,
# its message stream identical but for costs on finite backends, and every
# Depth and Distance replayed from the stream by the critical-path check.
# They are what catches a send engine that drifts from byte-identity.
contracts:
	$(GO) test -count 1 -timeout 20m \
		-run '^Test(ExecutionContracts|ShardTraceStreamInvariance|ShardBatchOutputInvariance|BackendInvariance|CacheOutputIdentity)$$' \
		./internal/experiments/

# staticcheck runs the pinned honnef.co/go/tools linter: the binary on
# PATH if there is one, else the pinned version from the local module
# cache. It never downloads (GOPROXY=off), so a machine that has neither
# skips it with a warning instead of failing `make check` or reaching for
# the network; CI installs the pinned version first and runs it for real.
# Pin bumps go here and in .github/workflows/ci.yml together.
STATICCHECK_VERSION ?= 2025.1.1
STATICCHECK_CACHED = GOPROXY=off $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif $(STATICCHECK_CACHED) -version >/dev/null 2>&1; then \
		$(STATICCHECK_CACHED) ./... ; \
	else \
		echo "staticcheck: tool unavailable (offline?); skipping" >&2 ; \
	fi

# conformance machine-checks every registered Θ/O claim against fresh
# sweeps (internal/bounds); non-zero exit means a bound no longer holds.
# QUICK=1 runs the smaller sweeps (~10 s, the CI gate); the default full
# sweeps — sort-family included — reach n = 2²⁰ and take a few minutes
# single-core (boundcheck defaults to shard-parallel rounds and the batched
# counting-only send path; rows are byte-identical to the sequential
# engine's). JSON=1 emits structured verdicts on stdout.
conformance:
	@$(GO) run ./cmd/boundcheck $(if $(QUICK),-quick,-full) $(if $(JSON),-json)

# conformance-golden checks the whole quick verdict document, not only
# that every claim holds: one worker and one shard at the default seed,
# compared byte for byte with the benchmark's golden copy (read here,
# never written). A change that moves any claim's fitted exponent, ratio
# or detail string fails it, not just one that breaks a bound.
conformance-golden:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/boundcheck -quick -json -parallel 1 -shards 1 > $$tmp/quick.json; \
	cmp $$tmp/quick.json perfbench/golden/conformance-quick-seed1.json \
		|| { echo "conformance-golden: quick verdicts differ from perfbench/golden/conformance-quick-seed1.json" >&2; exit 1; }

# conformance-full is the nightly entry point: full sweeps with a
# per-sweep wall-clock budget so a slow runner truncates sweeps (recorded
# in the JSON sweep stats) instead of hanging the job. Override with
# `make conformance-full TIMEOUT=20m`; JSON=1 as above. CACHE_DIR=path
# runs with the content-addressed result cache, so a repeat run on an
# unchanged tree is served from disk instead of re-simulated (the nightly
# workflow persists the directory between runs). The recipes are
# @-silenced so `JSON=1 > file.json` captures a pure JSON document — an
# echoed recipe line would corrupt the nightly artifact.
TIMEOUT ?= 9m
conformance-full:
	@$(GO) run ./cmd/boundcheck -full -timeout $(TIMEOUT) $(if $(JSON),-json) $(if $(CACHE_DIR),-cache $(CACHE_DIR))

# experiments-refresh regenerates the conformance verdict table used in
# EXPERIMENTS.md (full sweeps, JSON verdicts). Paste/update the verdict
# columns from this output when re-recording results.
experiments-refresh:
	$(GO) run ./cmd/boundcheck -full -json

# bench reruns the simulator micro-benchmarks plus four end-to-end
# measurements — the Table I sort, the MeshSortPoint and ScanPoint
# value/counting pairs (whose ns/op ratios record the single-measurement
# speedups of the counting-only path) and the 2^18 BitonicSortPoint at one
# and two shards (with MeshSortPoint's 2-shard counting point, the
# counting kernel's lanes) — plus the warm result-cache benchmark (its hit_rate metric
# tells bench-compare the timing measured cache lookups, not simulation)
# and rewrites BENCH_machine.json. The machine micro-benchmarks run five
# times and benchjson records each metric's median, so one sample taken in
# a slow or fast phase of a noisy host does not become the baseline. The
# recorded seed_baseline object (the pre-optimization numbers) is
# preserved across rewrites.
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkMachine' -benchmem -count 5 ./internal/machine/; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCacheHit' -benchmem ./internal/harness/; \
	  $(GO) test -run '^$$' -bench 'BenchmarkTable1Sort|BenchmarkMeshSortPoint|BenchmarkBitonicSortPoint|BenchmarkScanPoint' -benchtime 1x . ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_machine.json
	@echo wrote BENCH_machine.json

# bench-compare is the perf regression gate: rerun the machine-core
# micro-benchmarks five times and fail if any median ns/op regresses more
# than 20% against the committed BENCH_machine.json (itself a median of
# five). Noisy shared machines may need a wider tolerance: make
# bench-compare TOL=0.35. Run it alongside `make check` before committing
# machine/harness changes; rebaseline with `make bench`.
TOL ?= 0.20
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkMachine' -benchmem -count 5 ./internal/machine/ \
	| $(GO) run ./cmd/benchjson -compare BENCH_machine.json -tol $(TOL) -match BenchmarkMachine

# spatiald-smoke boots the daemon on a random port, submits the same
# boundcheck job twice and checks the second is served from cache with a
# byte-identical verdict document — all under the race detector. This is
# exactly the cmd/spatiald test suite, named as a target so CI and `make
# check` gate on it explicitly.
spatiald-smoke:
	$(GO) test -race -count 1 ./cmd/spatiald/ ./internal/service/

# smoke SUITE=tune|graph|backend gates one subsystem end to end: its test
# packages under the race detector, then a quick -json run through a fresh
# result cache whose warm rerun must emit the byte-identical document (the
# suite's determinism contract at the CLI boundary). The suites:
#   tune     the layout/schedule auto-tuner: tuner and spatialtune tests,
#            then a real quick tune (output is a pure function of
#            (workloads, sizes, seed));
#   graph    the composed graph-analytics suite: every algorithm checked
#            against its host reference, answers pinned across
#            shards/batch/mappings, then the quick graph bound claims;
#   backend  the finite-hardware backend layer: sharded folded runs
#            byte-identical to the sequential folded engine, then the quick
#            backend bound claims (backend simcache keying and verdict
#            determinism).
SMOKE_tune_PKGS := ./internal/tuner/ ./cmd/spatialtune/
SMOKE_tune_CMD := -race ./cmd/spatialtune -quick -json
SMOKE_graph_PKGS := ./internal/graph/
SMOKE_graph_CMD := ./cmd/boundcheck -quick -run graph/ -json
SMOKE_backend_PKGS := ./internal/machine/ ./internal/harness/ ./spatialdf/
SMOKE_backend_RUN := Backend|Fold
SMOKE_backend_CMD := ./cmd/boundcheck -quick -run backend/ -json
smoke:
	@if [ -z "$(SMOKE_$(SUITE)_PKGS)" ]; then \
		echo "smoke: SUITE must be one of tune, graph, backend (got '$(SUITE)')" >&2; exit 2; fi
	$(GO) test -race -count 1 $(if $(SMOKE_$(SUITE)_RUN),-run '$(SMOKE_$(SUITE)_RUN)') $(SMOKE_$(SUITE)_PKGS)
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run $(SMOKE_$(SUITE)_CMD) -cache $$tmp/cache > $$tmp/a.json; \
	$(GO) run $(SMOKE_$(SUITE)_CMD) -cache $$tmp/cache > $$tmp/b.json; \
	cmp $$tmp/a.json $$tmp/b.json \
		|| { echo "smoke SUITE=$(SUITE): warm rerun verdict differs" >&2; exit 1; }

# trace-smoke runs one quick experiment with tracing and heatmap output on
# and validates the trace_event JSON with cmd/tracecheck (-parallel 1 keeps
# the phase scopes of the single worker readable). The temp dir is created
# inside the recipe — a `:=` $(shell mktemp -d) would leak a directory on
# every make invocation, even `make help` — and removed on any exit.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/spatialbench -exp scan-ablation -quick -parallel 1 \
		-trace $$tmp/trace.json -heatmap $$tmp/heat.csv > /dev/null; \
	$(GO) run ./cmd/tracecheck $$tmp/trace.json; \
	head -1 $$tmp/heat.csv | grep -q '^row,col,sends' \
		|| { echo "trace-smoke: bad heatmap header" >&2; exit 1; }
