# make check mirrors .github/workflows/ci.yml exactly; CI calls these same
# targets so the two can't drift.
GO ?= go

# The root package carries the public-API frontend/future tests (64 clients
# over 8 sessions, crash resolution); internal/frontend has the pool-level
# drain/backpressure/ordering tests; torture/simdisk/checkpoint carry the
# crash-injection subsystem and its fault plane.
RACE_PKGS := . ./client/... ./internal/wire/... ./internal/frontend/... ./internal/recovery/... ./internal/sched/... ./internal/wal/... ./internal/txn/... ./internal/mvcc/... ./internal/engine/... ./internal/torture/... ./internal/simdisk/... ./internal/checkpoint/... ./internal/shard/... ./internal/health/... ./internal/harness/... ./cmd/pacman-router/... ./internal/index/... ./internal/metrics/... ./internal/proc/...

.PHONY: check fmt vet build test race torture smoke bench bench-mod bench-all docs fuzz

check: fmt vet build test race torture smoke bench bench-mod docs

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race -count=1 -timeout 120s $(RACE_PKGS)

# The crash-injection torture subsystem's CI entry point, raced: the short
# fixed seed set per logging kind (one seed per kind crashing *during*
# Restart), the Future crash-semantics contract, and internal/torture's own
# tests, which run all four shapes (in-process, net, gray, cluster) plus the
# oracle's own checks. An oracle violation prints the failing seed, the
# armed fault plans and the command that reruns its shape (e.g.
# `go run ./cmd/pacman-bench -exp torture -seed <s> -iters 1 ...`). The
# wide sweep hides behind `go test -run TestTortureLong -torture.long .`.
torture:
	$(GO) test -race -count=1 -timeout 120s -run 'TestTortureShort|TestFutureCrashSemantics' -v .
	$(GO) test -race -count=1 -timeout 120s ./internal/torture/

# A tiny end-to-end run of the bench binary: reports durable-commit latency
# percentiles from the frontend's futures, measures forward throughput +
# allocs/txn under CL/PL/LL (the throughput experiment), and drives the
# blueprint lifecycle through a crash -> Restart -> serve -> crash ->
# Restart round trip (CLR-P and PLR), plus the sharded-cluster benchmark
# (router + 2PC throughput scaling at 1/2/4 shards and the cross-shard
# ratio sweep, emitting BENCH_shard.json) and the mixed OLTP+snapshot-scan
# experiment (tps with/without a concurrent scanner, scan staleness in
# epochs, MVCC GC counters, emitting BENCH_mixed.json), and the
# gray-failure experiment (deadline-bounded traffic vs slow/hung devices,
# watchdog detection, gray torture oracle, emitting BENCH_gray.json), and
# the core-scaling matrix (per-core submission queues, one logger per
# device: tps + steals over a reduced 1/2/4-worker x 1/2-device
# matrix, emitting BENCH_scaling.json). Machine-readable
# BENCH_<experiment>.json results land in bench-results/; the
# TestBenchArtifactsPresent drift check runs right after and fails when
# any experiment listed here is missing its BENCH_<exp>.json (it skips on
# checkouts that never ran smoke — the directory is gitignored).
smoke:
	$(GO) run ./cmd/pacman-bench -exp latency,throughput,mixed,restart,torture,net,shard,gray,scaling -duration 300ms -workers 2 -json bench-results
	$(GO) test -count=1 -timeout 120s -run TestBenchArtifactsPresent .

# The documentation gate: the spec-first doc-drift test (wire constants vs
# docs/PROTOCOL.md's normative tables), the relative-link check over
# README/ROADMAP/docs, the knob-table drift check (every field of the
# public config structs has a row in docs/ARCHITECTURE.md), and every
# runnable Example (Launch, Restart, Frontend.Submit, client Dial) with its
# asserted output.
docs:
	$(GO) test -count=1 -timeout 120s -run TestDocsProtocolDrift ./internal/wire/
	$(GO) test -count=1 -timeout 120s -run 'TestDocsLinks|TestDocsKnobTable' .
	$(GO) test -count=1 -timeout 120s -run Example . ./client/

# The commit-hot-path regression guard: the BenchmarkCommitLogged* micro
# benchmarks with allocation counts, then BenchmarkFrontendSubmit (a fixed
# 2000 iterations, so the async variant's held futures stay small) for the
# Frontend submission path. The allocs/op columns are the contract — the
# submit->execute->commit->encode->release pipeline stays at a handful of
# allocations per transaction (see README "Performance"). Then
# BenchmarkRestartPL restarts a checkpointed, torn physical-log image and
# reports the device bytes one Restart reads (read-B/op) beside the log and
# checkpoint sizes: the log is read once, tail repair included. Last,
# BenchmarkReplayTPCC{Serial,PACMAN} replay one TPC-C command log by serial
# re-execution (CLR's inner loop) and through the CLR-P scheduler on 2
# threads; CLR-P should take no longer and allocate about as much.
bench:
	$(GO) test -run='^$$' -bench=BenchmarkCommitLogged -benchmem -count=1 -timeout 120s .
	$(GO) test -run='^$$' -bench=BenchmarkFrontendSubmit -benchtime=2000x -benchmem -count=1 -timeout 120s .
	$(GO) test -run='^$$' -bench=BenchmarkRestartPL -benchtime=20x -benchmem -count=1 -timeout 120s .
	$(GO) test -run='^$$' -bench=BenchmarkReplayTPCC -benchmem -count=1 -timeout 120s ./internal/sched/

# bench/ is a nested module (pacman/bench, replace => ..) that imports the
# root's internal packages. The root's `go vet ./...` and `go test ./...`
# never see it, so without this target a root API change that breaks the
# benchmark harness would pass.
bench-mod:
	cd bench && $(GO) vet ./... && $(GO) test -timeout 120s ./...

# The full experiment benchmark sweep (slow; not part of check).
bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Every Fuzz* target of the module, one after another, each for FUZZTIME
# (slow; not part of check). Plain `go test` already runs each target's
# seed corpus; this target searches beyond it. go test fuzzes one target of
# one package per run, hence the loop.
FUZZTIME ?= 60s
fuzz:
	@set -e; for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for t in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go 2>/dev/null | cut -c6-); do \
			echo "== $$t ($$dir)"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$dir; \
		done; \
	done
