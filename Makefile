# Repo verification targets. `make ci` is what the verify step runs: it
# lints everything (go vet plus the stashvet analyzers), runs the full
# suite under the race detector (which exercises the concurrent paths of
# internal/runner and cmd/stashd), and runs the engine benchmarks once as
# a compile-and-smoke check.

GO ?= go

.PHONY: ci build test race vet lint lint-fast mcheck mcheck-smoke fuzz-smoke proto-table proto-table-check bench bench-engine bench-protocol bench-psim bench-trace bench-smoke bench-psim-smoke bench-trace-smoke race-psim race-fleet

ci: lint race race-psim race-fleet mcheck-smoke fuzz-smoke proto-table-check bench-smoke bench-psim-smoke bench-trace-smoke bench-protocol

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is vet plus the repo's own analyzers (cmd/stashvet), all eight:
# pool ownership (poolcheck), hot-path zero-alloc (hotpath), simulation
# determinism (determinism), the service-layer concurrency family — lock
# discipline (lockcheck), cancellable blocking (ctxcheck), goroutine-send
# leaks (chanleak), mixed atomic access (atomiccheck) — and parallel-
# engine tile isolation (sharecheck). A finding fails the build (exit 1),
# as does any //stash: directive count above its committed baseline in
# .stashvet-budget (exit 3, so CI can tell "fix the code" from "review
# the budget raise").
lint: vet
	$(GO) run ./cmd/stashvet -budget .stashvet-budget ./...

# lint-fast skips go vet: just the stashvet analyzers, for tight
# edit-check loops. Use `go run ./cmd/stashvet -run=<name> ./...` to
# narrow further to one analyzer. Fact recomputation is not skipped:
# facts live in memory for one driver run (no on-disk fact cache), so
# sharecheck/atomiccheck re-derive dependency summaries every time.
# Measured cost of the whole facts layer is ~0.1s on this repo (see
# DESIGN.md "Static analysis"), which is noise next to go vet — hence
# lint-fast drops vet, not facts.
lint-fast:
	$(GO) run ./cmd/stashvet ./...

# The three per-class budget gates (ignore-budget, parallel-budget,
# share-budget) that used to live here as shell arithmetic moved into
# stashvet itself: `-budget .stashvet-budget` (see internal/analysis/
# budget.go for the class definitions and semantics).

# mcheck exhaustively model-checks the protocol on the 2-core/1-address
# configuration for every directory organization, then runs the bounded
# 2-core/2-address conflict exploration for the two organizations whose
# transition tables PROTOCOL.md carries. See internal/mcheck.
mcheck:
	$(GO) run ./cmd/stashmc -cores 2 -addrs 1 -kind all
	$(GO) run ./cmd/stashmc -cores 2 -addrs 2 -depth 4 -kind sparse
	$(GO) run ./cmd/stashmc -cores 2 -addrs 2 -depth 4 -kind stash

# mcheck-smoke is the CI slice of mcheck: the exhaustive 2x1 sweep over
# all organizations (~1s per kind). The deeper conflict configurations
# are exercised by the mcheck package tests and proto-table-check.
mcheck-smoke:
	$(GO) run ./cmd/stashmc -cores 2 -addrs 1 -kind all

# fuzz-smoke runs the binary-trace decoder fuzzer for a few seconds so CI
# keeps the fuzz target compiling and covers the seeded corruption corpus
# plus whatever mutations fit the time box.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzBinarySource -fuzztime 10s ./internal/trace

# proto-table regenerates the model-checked transition tables embedded in
# PROTOCOL.md; proto-table-check (in ci) fails when they have drifted
# from what the protocol actually does.
proto-table:
	$(GO) run ./cmd/stashmc -table PROTOCOL.md

proto-table-check:
	$(GO) run ./cmd/stashmc -table PROTOCOL.md -check

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-psim runs the parallel-engine packages under the race detector on
# their own so a full-suite race run is never the only thing standing
# between a barrier bug and main. The second pass pins the engine to one
# P: every barrier wait then takes the yield-immediately branch, and
# TestOversubscribed runs more shards than GOMAXPROCS in both passes.
race-psim:
	$(GO) test -race -count=1 ./internal/psim ./internal/system
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/psim

# race-fleet runs the service tier — coordinator, worker HTTP layer, runner
# and their shared single-flight primitive — under the race detector with
# caching disabled, so the fleet's cross-process coordination paths (dedup,
# failover, shedding, streaming) are re-raced even when the full-suite run
# hits its test cache. The second pass repeats flight.Call's tests and the
# runner's coalescing, disk-probe, waiter and dead-job tests 20 times: the
# join/leave/finish interleavings are where the service tier's races have
# lived, and a flake there is a bug.
race-fleet:
	$(GO) test -race -count=1 ./internal/fleet ./internal/stashd ./internal/runner ./internal/flight
	$(GO) test -race -count=20 ./internal/flight
	$(GO) test -race -count=20 -run 'Coalesc|Probe|Waiter|Dead' ./internal/runner

# bench records the engine scheduler benchmarks into BENCH_engine.json
# (the repo's perf trajectory), then runs the figure/table suite.
bench: bench-engine bench-protocol
	$(GO) test -bench=. -benchmem

# bench_gate runs benchmarks and feeds their output to benchjson, with
# separate failures for each step: $(1) names the target, $(2) is the
# `go test` arguments, $(3) the benchjson arguments, $(4) the message for
# a benchjson (allocation gate) failure. go test's output goes to a temp
# file first rather than down a pipe, so its own exit status still fails
# the target: benchjson skips FAIL lines, and a benchmark that panics or
# calls b.Fatal after another one has printed its result would otherwise
# pass.
define bench_gate
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	{ $(GO) test -run '^$$' $(2) > "$$out" 2>&1 || \
		{ cat "$$out"; echo "$(1): benchmarks failed (go test exited non-zero)" >&2; exit 1; }; } && \
	{ $(GO) run ./cmd/benchjson $(3) < "$$out" || \
		{ echo "$(1): $(4)" >&2; exit 1; }; }
endef

# bench-engine records the scheduler benchmarks into BENCH_engine.json and
# fails if a steady-state scheduling path allocates: after warm-up the
# engine is a zero-allocs/event contract. The gate covers the four
# per-event benchmarks only (ENGINE_ZERO_ALLOC), since the container/heap
# legacy twins and the end-to-end throughput run allocate by design.
ENGINE_ZERO_ALLOC = '^BenchmarkEngine(After1|After0Burst|Mixed|FarFuture)(-[0-9]+)?$$'
HOTPATH_HINT = run 'make lint' — the hotpath analyzer pinpoints allocation sites in //stash:hotpath functions

bench-engine:
	$(call bench_gate,bench-engine,-bench BenchmarkEngine -benchmem ./internal/sim,-o BENCH_engine.json -max-allocs 0 -max-allocs-filter $(ENGINE_ZERO_ALLOC),event scheduler allocates per event; $(HOTPATH_HINT))

# bench-protocol records the coherence hot-path benchmarks into
# BENCH_protocol.json and fails if any steady-state protocol path
# allocates: the pooled-message/pooled-TBE design is a zero-allocs/op
# contract, enforced here in CI. When it fails, start with the static
# picture: `make lint` — the hotpath analyzer usually names the exact
# allocation site that broke the contract.
bench-protocol:
	$(call bench_gate,bench-protocol,-bench BenchmarkProtocol -benchmem ./internal/coherence,-o BENCH_protocol.json -max-allocs 0,allocation contract broken; $(HOTPATH_HINT))

# bench-psim records the serial-vs-parallel engine sweep (16-core model,
# shards 0/2/4/8) into BENCH_psim.json. The events/sec ratio between the
# shards=N and serial entries is the parallel speedup; it needs host
# parallelism (GOMAXPROCS > 1) to exceed 1, and the benchmark names embed
# the host core count so recorded sweeps compare like with like.
bench-psim:
	$(call bench_gate,bench-psim,-bench BenchmarkPsim -benchmem ./internal/system,-o BENCH_psim.json,could not record BENCH_psim.json)

# bench-trace records the trace-pipeline benchmarks into BENCH_trace.json:
# the text-vs-binary replay comparison (internal/trace, 1M-access streams)
# and the 16-to-256-core binary-replay scaling sweep (internal/system).
# The zero-alloc gate applies only to the ReplayBinary entries — the
# binary hot path's contract — since the text baseline and the
# full-system scaling runs allocate by design.
bench-trace:
	$(call bench_gate,bench-trace,-bench BenchmarkTrace -benchmem ./internal/trace ./internal/system,-o BENCH_trace.json -max-allocs 0 -max-allocs-filter 'ReplayBinary',binary replay hot path allocates; $(HOTPATH_HINT))

# bench-smoke executes every engine benchmark exactly once so ci catches
# benchmark bit-rot without paying full measurement time, and holds the
# per-event benchmarks to bench-engine's zero-alloc gate.
bench-smoke:
	$(call bench_gate,bench-smoke,-bench BenchmarkEngine -benchtime=1x -benchmem ./internal/sim,-o /dev/null -max-allocs 0 -max-allocs-filter $(ENGINE_ZERO_ALLOC),event scheduler allocates per event; $(HOTPATH_HINT))

bench-psim-smoke:
	$(GO) test -run '^$$' -bench BenchmarkPsim -benchtime=1x -benchmem ./internal/system

bench-trace-smoke:
	$(call bench_gate,bench-trace-smoke,-bench BenchmarkTrace -benchtime=1x -benchmem ./internal/trace ./internal/system,-o /dev/null -max-allocs 0 -max-allocs-filter 'ReplayBinary',binary replay hot path allocates; $(HOTPATH_HINT))
