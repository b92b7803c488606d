GO ?= go

# Pinned versions for the optional third-party analyzers (installed in CI,
# skipped gracefully where absent — this repo vendors no modules).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: build fmt test vet race bench microbench audit crash serve-test lint lint-test perfbench-test modverify staticcheck vuln verify

build:
	$(GO) build ./...

# The tree must be gofmt-clean: gofmt -l lists every file it would change.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l . ; echo "gofmt: files above need formatting" ; exit 1 ; }

# -shuffle=on randomizes test order every run: the suites promise
# order-independence, so a hidden inter-test dependency should fail fast
# rather than survive until a flaky day.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The race detector is part of tier-1 verification: the parallel batch
# assignment pipeline (DESIGN.md §7) promises data-race freedom and
# bit-identical results for every worker count, the -race-gated stress
# tests only build here, and the serving tests run concurrent writers
# and readers against one tenant.
race:
	$(GO) test -race -shuffle=on ./...

# Pinned count suite (DESIGN.md §11): fixed-seed, fixed-operation
# workloads whose distance and span counts TestPinnedCounts holds to the
# committed BENCH_incbubbles.json on every `go test ./...`. `make bench`
# regenerates that file (and re-runs the mechanism checks); commit the
# result only when the count change is intentional.
bench:
	$(GO) test ./internal/bench -count=1 -update

# Raw go-test microbenchmarks, unpinned (adaptive b.N, machine-dependent),
# BenchmarkWorkloads' wall clock for the pinned count suite included.
microbench:
	$(GO) test -bench=. -benchmem ./...

# Fuzz smoke: ten seconds per target (Go allows one -fuzz pattern per
# invocation, hence one line each). Covers the bubble codec, the
# codec+auditor composition, the CSV reader, the telemetry auditor and
# the Prometheus writer/parser pair (DESIGN.md §8), the seed distance
# matrix oracle and the Figure 2 search's brute-force differential
# (DESIGN.md §12), the WAL codecs (DESIGN.md §10),
# and bubbled's JSON ingest surface (DESIGN.md §15).
FUZZTIME ?= 10s
audit: vet race
	$(GO) test ./internal/bubble -run='^$$' -fuzz='^FuzzSeedMatrix$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bubble -run='^$$' -fuzz='^FuzzClosestSeed$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bubble -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/bubble -run='^$$' -fuzz='^FuzzLoadAudit$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/telemetry -run='^$$' -fuzz='^FuzzAudit$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/telemetry -run='^$$' -fuzz='^FuzzPromRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzRecordRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz='^FuzzSegmentScan$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzIngest$$' -fuzztime=$(FUZZTIME)

# Full crash-recovery matrix (DESIGN.md §10): kill the workload at every
# registered failpoint in every mode, resume from disk, and require the
# final state to be bit-identical to the uninterrupted run. Every cadence
# checkpoint is write-behind, so the checkpoint cells kill the background
# writer. The env var unlocks the full matrix; plain `go test` runs a
# smoke subset.
crash:
	INCBUBBLES_CRASH=1 $(GO) test ./internal/wal -run='^TestCrashRecoveryMatrix$$' -v

# Service-level verification for bubbled (DESIGN.md §15): the httptest
# suite plus the full chaos matrix — kill the server mid-ingest across
# tenants at every armed failpoint, restart over the same root, re-drive
# the unacked suffixes, and require every tenant's recovered state to be
# bit-identical to an unkilled oracle. Plain `go test` runs the smoke
# subset of the matrix. The second line is the metrics-scrape smoke
# (DESIGN.md §16): /metrics under concurrent multi-tenant ingest must
# parse cleanly and its counters must equal the internal accounting
# exactly.
serve-test:
	INCBUBBLES_CRASH=1 $(GO) test -race ./internal/server ./internal/retry -v
	$(GO) test -race ./internal/server -run 'TestMetrics|TestReadyz|TestTenantTrace|TestDebugPprof' -count=1

# bubblelint is the repo's own analyzer suite (DESIGN.md §9, §14): twelve
# analyzers — rawdist, seededrng, floatsafe, telemetrysync, metriccatalog,
# spanend, nopanic, plus the callgraph-backed concurrency/hot-path pack
# (lockorder, atomicfield, hotpathalloc, ctxflow, errsentinel); the
# callgraph engine runs as their shared requirement, thirteen passes. The tree
# must stay clean; suppressions require a //lint:allow directive with a
# reason (//lint:lockcover for deliberate blocking under a mutex).
lint:
	$(GO) build -o bin/bubblelint ./cmd/bubblelint
	./bin/bubblelint ./...

# The analyzer pack's own tests (fixtures + framework + driver) under the
# race detector: the lint gate is only as trustworthy as its test suite.
lint-test:
	$(GO) test -race ./internal/analysis/...

# perfbench (the end-to-end timing benchmark) is a nested module, which
# `go build ./...` and `go test ./...` at the root do not reach.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

modverify:
	$(GO) mod verify

# Gated: run the pinned third-party analyzers when installed, skip with a
# notice otherwise (offline development boxes cannot install them).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) not installed; skipping" ; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... ; \
	else \
		echo "govulncheck $(GOVULNCHECK_VERSION) not installed; skipping" ; \
	fi

verify: build fmt vet lint lint-test perfbench-test modverify test race audit staticcheck vuln
