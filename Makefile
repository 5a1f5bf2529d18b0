# Developer entry points. `make check` is the full gate: build, vet,
# the scvet invariant suite, and the race-enabled test suite (the
# parallel month evaluator in internal/billing makes -race mandatory
# before merging).

GO ?= go
SCVET := bin/scvet

.PHONY: all build vet scvet-build scvet scvet-report test race check fmt-check lint serve bench bench-billing bench-artifact bench-json bench-check bench-pair optimize-accept loadtest loadtest-smoke fleetchaos fleetchaos-smoke fuzz bench-fleet-test chaos clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Build the repo's custom analyzer suite from the module itself: scvet
# can never be "not installed", so unlike the third-party linters it
# never soft-skips.
scvet-build:
	$(GO) build -o $(SCVET) ./cmd/scvet

# The vettool path must be absolute: go vet execs it from each
# package's directory.
scvet: scvet-build
	$(GO) vet -vettool=$(CURDIR)/$(SCVET) ./...

# CI artifact run: the same gate, but findings and the suppression
# ledger land in files the workflow uploads. The ledger runs strict so
# a stale, malformed, or misspelled scvet-ignore directive fails the
# job, not just the eyeball pass.
scvet-report: scvet-build
	@$(GO) vet -vettool=$(CURDIR)/$(SCVET) ./... >scvet-findings.txt 2>&1; \
		status=$$?; cat scvet-findings.txt; \
		if [ $$status -ne 0 ]; then exit $$status; fi
	@$(CURDIR)/$(SCVET) -ignores -strict . >scvet-ignores.txt 2>&1; \
		status=$$?; cat scvet-ignores.txt; \
		if [ $$status -ne 0 ]; then exit $$status; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet scvet race

# Fail if any file is not gofmt-clean (CI gate).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet: the in-tree scvet suite always runs;
# staticcheck and govulncheck run when installed. Locally a missing
# tool skips with a notice (bare checkouts stay usable); in CI ($CI
# set) a missing tool is a hard failure — CI must never silently "pass"
# a gate it didn't run.
lint: vet scvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "lint: staticcheck not installed in CI" >&2; exit 1; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ -n "$$CI" ]; then \
		echo "lint: govulncheck not installed in CI" >&2; exit 1; \
	else echo "lint: govulncheck not installed, skipping"; fi

# Run the billing-as-a-service daemon on :8080 (see cmd/scserved -h).
serve:
	$(GO) run ./cmd/scserved -addr :8080

# Full benchmark sweep (paper exhibits + ablations).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The billing hot-path family: legacy multi-pass vs single-pass engine,
# plus the optimizer's year-long annealing search on top of it.
bench-billing:
	$(GO) test -run '^$$' -bench 'BenchmarkBillYear|BenchmarkBillingYear|BenchmarkOptimizeYear' -benchmem .

# Benchmark sweep into bench.txt for archiving (CI uploads this as a
# build artifact so perf history survives past the run log).
bench-artifact:
	$(GO) test -run '^$$' -bench . -benchmem -count 1 . | tee bench.txt

# Structured billing-benchmark record: the BillYear* family parsed by
# cmd/scbench into $(BENCH_OUT) (name, ns/op, B/op, allocs/op, commit).
# Run locally to refresh the committed BENCH_billing.json baseline
# after an intentional perf change.
BENCH_OUT ?= BENCH_billing.json
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkBillYear|BenchmarkBillingYear|BenchmarkOptimizeYear' -benchmem -count 1 . \
		| $(GO) run ./cmd/scbench \
			-commit $$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
			-out $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# CI perf gate: rerun the billing benchmarks, plus one /v1/bill per
# named profile, one dynamic-tariff year bill on the flat reference
# feed and one monthly batch of 16 named-profile loads through the
# service handler, into BENCH_current.json
# and fail on a >15% ns/op or >10% allocs/op regression of the gated
# benchmarks (the engine year-bill and the optimizer search riding on
# it) vs the committed BENCH_billing.json baseline. Only benchmarks the
# baseline lists are gated; the rest are reported.
BENCH_SET := BenchmarkBillYear|BenchmarkBillingYear|BenchmarkOptimizeYear|BenchmarkBillNamedProfile|BenchmarkBillDynamicFlat|BenchmarkBillBatchMonthly
BENCH_GATE := BillYearEngine|OptimizeYear
BENCH_THRESHOLD := 0.15
BENCH_ALLOC_THRESHOLD := 0.10
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count 1 . \
		| $(GO) run ./cmd/scbench \
			-commit $$(git rev-parse --short HEAD 2>/dev/null || echo unknown) \
			-out BENCH_current.json \
			-compare BENCH_billing.json -gate '$(BENCH_GATE)' \
			-threshold $(BENCH_THRESHOLD) -alloc-threshold $(BENCH_ALLOC_THRESHOLD)

# Paired perf gate: the bench-check set and gate, but against BASE (any
# git revision) measured on this host, 5 alternating rounds per side,
# medians compared. CI runs it on pull requests against the base commit.
bench-pair:
	@if [ -z "$(BASE)" ]; then echo "usage: make bench-pair BASE=<rev>" >&2; exit 2; fi
	GO=$(GO) scripts/bench-pair.sh '$(BASE)' '$(BENCH_SET)' '$(BENCH_GATE)' $(BENCH_THRESHOLD) $(BENCH_ALLOC_THRESHOLD)

# The fleet benchmark's own tests (its own module, so `go test ./...`
# at the root skips it): unit tests plus a 1 s smoke run per workload
# that checks every response byte for byte against the oracle.
bench-fleet-test:
	cd benchmark && $(GO) test ./...

# Seeded acceptance sweep: optimize the year-in-life load against all
# ten survey-site contracts and fail when the table drifts from the
# committed ACCEPTANCE_optimize.md or any demand-charge/powerband site
# is not strictly cheaper than baseline. ACCEPTANCE_current.md is
# uploaded by CI as an artifact. After an intentional optimizer change,
# regenerate with:
#	go run ./cmd/scopt -survey -check -out ACCEPTANCE_optimize.md
optimize-accept:
	$(GO) run ./cmd/scopt -survey -check -out ACCEPTANCE_current.md
	@if ! cmp -s ACCEPTANCE_current.md ACCEPTANCE_optimize.md; then \
		echo "optimize-accept: sweep drifted from committed ACCEPTANCE_optimize.md:"; \
		diff -u ACCEPTANCE_optimize.md ACCEPTANCE_current.md || true; exit 1; fi
	@echo "optimize-accept: sweep matches ACCEPTANCE_optimize.md"

# Sharded-fleet acceptance: boots a 1-backend baseline and a 3-backend
# scroute fleet, drives both with the seeded scload generator, and
# asserts shed-not-collapse (429s rise with offered load, admitted p99
# bounded, zero 5xx) plus the router's raison d'être — every sharded
# backend's engine-cache hit rate beats the unsharded baseline. Writes
# ACCEPTANCE_loadtest.md; regenerate and commit after intentional
# fleet/admission changes.
loadtest:
	scripts/loadtest.sh accept

# CI smoke: 2 backends behind scroute, short overload burst; fails on
# any 5xx or if nothing was shed. Writes loadtest-summary.md (uploaded
# as a CI artifact).
loadtest-smoke:
	scripts/loadtest.sh smoke

# Fleet chaos acceptance: 3 backends behind scchaos fault proxies
# behind scroute; scload events blackhole one backend mid-load and
# then brown it out 10x while windowed assertions check ejection,
# hedging, and the retry-budget cap. Writes ACCEPTANCE_fleetchaos.md;
# regenerate and commit after intentional routing/resilience changes.
fleetchaos:
	scripts/fleetchaos.sh accept

# CI smoke: 2 backends, 1 chaos proxy, one short blackhole flip; fails
# if the error rate stays elevated after the ejection window. Writes
# fleetchaos-summary.md (uploaded as a CI artifact).
fleetchaos-smoke:
	scripts/fleetchaos.sh smoke

# Chaos soak: the fault-injected price-feed acceptance suite plus the
# resilience state-machine tests, race-enabled with a short timeout so
# a wedged retry loop fails fast instead of hanging CI. The verbose log
# is teed to chaos-soak.log (CI uploads it as an artifact).
# (log-then-cat instead of tee so the test's exit status survives the
# POSIX shell make uses.)
chaos:
	@$(GO) test -race -count=1 -timeout 120s -v \
		-run 'Chaos|Breaker|Cached|Injector' \
		./internal/serve/ ./internal/feed/ ./internal/chaos/ ./internal/resilience/ \
		> chaos-soak.log 2>&1; status=$$?; cat chaos-soak.log; exit $$status

# Short fuzz pass over the timeseries parsers and transforms, the
# batch-billing endpoint, the request-body scanners (the JSON grammar
# against json.Valid, the structural skip against the grammar's ends,
# the one-pass number parser against Number and strconv.ParseFloat,
# the one-pass request decoder against json.Decoder, the router's key
# against the spec the backend bills), the router's
# forward plan against its invariants, the columnar kernels against the
# legacy oracle, the bill appender against encoding/json's rendering,
# the optimizer's safety envelope, and its level solves against the
# 52-step bisections.
fuzz:
	$(GO) test ./internal/timeseries/ -fuzz FuzzReadPowerCSV -fuzztime 20s
	$(GO) test ./internal/timeseries/ -fuzz FuzzResampleWindow -fuzztime 20s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzBatchRequest -fuzztime 20s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzSkip -fuzztime 20s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzExtent -fuzztime 20s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzParseNumber -fuzztime 20s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 20s
	$(GO) test ./internal/route/ -run '^$$' -fuzz FuzzRoutingKey -fuzztime 20s
	$(GO) test ./internal/route/ -run '^$$' -fuzz FuzzPlan -fuzztime 20s
	$(GO) test ./internal/contract/ -run '^$$' -fuzz FuzzColumnarEquivalence -fuzztime 20s
	$(GO) test ./internal/contract/ -run '^$$' -fuzz FuzzBillJSON -fuzztime 20s
	$(GO) test ./internal/optimize/ -run '^$$' -fuzz FuzzOptimizeFeasible -fuzztime 20s
	$(GO) test ./internal/optimize/ -run '^$$' -fuzz FuzzLevelSolve -fuzztime 20s

clean:
	$(GO) clean ./...
	rm -f $(SCVET)
