# Development entry points. `make check` is the tier-1 gate CI runs on every
# commit: build, the repo's own analyzers (cmd/mube-vet — early, so policy
# violations fail in seconds instead of after the race suite), go vet, a
# gofmt check, one uncached pass of the full test suite under the race
# detector, and the allocation budgets without it.

GO ?= go

.PHONY: check build vet test race allocs fmt-check mube-vet bench-smoke fuzz-smoke trace-smoke trace-golden benchall fmt

check: build mube-vet vet fmt-check race allocs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every test once under the race detector, uncached (-count=1), so
# the cancellation races, the trace-determinism contract, the goldens, and
# the full-length watch churn soak are re-executed on every `make check`
# instead of served from the test cache.
race:
	$(GO) test -race -count=1 ./...

# allocs runs the allocation-budget tests (testing.AllocsPerRun pins; every
# one has Alloc in its name) once, uncached, without the race detector. They
# skip under -race, which instruments allocation, so the race target alone
# would gate no budget.
allocs:
	$(GO) test -count=1 -run Alloc ./...

# fmt-check fails when any file `make fmt` would format is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/)); \
	if [ -n "$$out" ]; then echo "gofmt needed (run make fmt):"; echo "$$out"; exit 1; fi

mube-vet:
	$(GO) run ./cmd/mube-vet ./...

# bench-smoke is CI's non-gating sanity pass: the 100k and 1M universe
# presets at reduced solver budget, proving streamed generation, the shard
# index, and the partitioned solve end to end. Performance is
# measured by perfbench (`bash perfbench/run.sh --workload <w> ...`, see
# BENCHMARK.json), not here.
bench-smoke:
	$(GO) run ./cmd/mube-bench -universe 100k -smoke
	$(GO) run ./cmd/mube-bench -universe 1m -smoke

# fuzz-smoke runs each native fuzz target for about 10 s beyond its committed
# seed corpus (testdata/fuzz/<target> next to the test); `go test -fuzz`
# takes one target per run, so each target has its own line. CI runs it
# non-gating. A crasher it finds is written into that corpus directory;
# commit it there as a regression input together with the fix.
fuzz-smoke:
	$(GO) test ./internal/fault/ -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime 10s
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime 10s
	$(GO) test ./internal/source/ -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s
	$(GO) test ./internal/session/ -run '^$$' -fuzz '^FuzzLoadSpec$$' -fuzztime 10s

# trace-smoke records a deterministic watch trace through the CLI
# (virtual-clock timings, so the bytes are machine-independent), renders the
# mube-trace flame and churn reports from it, and diffs its phase profile
# against the committed golden watch trace. The diff is informational — the
# fresh run uses CLI-reachable settings, not the golden test's fault plan —
# but the target proves the whole trace pipeline (record → parse → tree →
# profile → compare) end to end; CI runs it non-gating and uploads the trace.
trace-smoke:
	$(GO) run ./cmd/mube watch -gen 14 -scale 0.002 -epochs 20 -churn 0.2 -seed 7 -m 5 -evals 150 -trace TRACE_watch.jsonl
	$(GO) run ./cmd/mube-trace TRACE_watch.jsonl
	$(GO) run ./cmd/mube-trace -report churn TRACE_watch.jsonl
	$(GO) run ./cmd/mube-trace -compare internal/watch/testdata/golden_trace.jsonl TRACE_watch.jsonl

# trace-golden regenerates every committed trace golden (the tabu solver
# trace, the watch churn trace, and mube-trace's pinned report renderings)
# after an intentional schema or rendering change. Regenerate and commit the
# goldens in the same change that altered the format.
trace-golden:
	$(GO) test ./internal/opt/tabu/ -run TestGoldenTrace -update -count=1
	$(GO) test ./internal/watch/ -run TestGoldenChurnTrace -update -count=1
	$(GO) test ./cmd/mube-trace -update -count=1

# benchall runs every Go benchmark of the root module once, as CI does, to
# prove each still runs; `go vet` only compiles them. Its timings are not
# measurements (see perfbench for those).
benchall:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

fmt:
	gofmt -w $$(git ls-files '*.go' | grep -v /testdata/)
