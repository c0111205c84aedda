# Tier-1 verification for the Mint reproduction. `make tier1` is the
# gate every PR must keep green: build, vet, the full test suite, and the
# race-enabled run of the concurrent miners.

GO ?= go

.PHONY: tier1 build vet test race fuzz bench bench-report bench-compare serve-check

tier1: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The root package needs ~12 minutes under -race on a 2-vCPU host
# (TestAblationDirections alone ~11), past go test's 10-minute default.
race:
	$(GO) test -race -timeout 25m ./...

# Serving-layer verification: the full mintd suite under -race —
# admission/breaker/registry units, endpoint contracts, the chaos soak
# (every response exact, loudly degraded, or cleanly shed), and the
# in-process + subprocess SIGTERM drain tests.
# Serving suite: worker core (admission, breakers, registry, chaos
# soak), the scatter-gather coordinator (internal/server/gather, covered
# by the ... wildcard), shard planning, the streaming-ingest WAL
# (torn-tail repair, corrupt-log property tests, chaos), and the
# binary-level drain, coordinator, and SIGKILL-ingest-recovery
# end-to-end tests.
serve-check:
	$(GO) test -race -count=1 ./internal/server/... ./internal/shard/ ./internal/edgelog/ ./internal/replica/ ./cmd/mintd/

# Short fuzz passes (native Go fuzzing): the SNAP loader, the motif
# parser round trip, the co-mining planner (arbitrary motif lists
# must partition exactly into δ-grouped prefix tries, never panic),
# and the WAL decoder (arbitrary segment bytes must yield records, a
# clean torn-tail, or a loud corruption error — never a panic).
fuzz:
	$(GO) test ./internal/temporal/ -run='^$$' -fuzz=FuzzReadSNAP -fuzztime=30s
	$(GO) test ./internal/temporal/ -run='^$$' -fuzz=FuzzMotifParse -fuzztime=30s
	$(GO) test ./internal/comine/ -run='^$$' -fuzz=FuzzMotifSetPlan -fuzztime=30s
	$(GO) test ./internal/edgelog/ -run='^$$' -fuzz=FuzzEdgeLogDecode -fuzztime=30s

# Sequential hot-path benchmarks (the <2% regression budget lives here).
bench:
	$(GO) test -run='^$$' -bench=BenchmarkCoreMinerMotifs -benchtime=2x -count=5 .

# Observability overhead report: M1–M4 sequential miner with the metrics
# registry off and on; writes BENCH_obs.json and runs the <3% guard. Also
# replays the hot-path measurement (executor vs Algorithm 1) against the
# committed BENCH_hotpath.json and fails on a >10% speedup regression
# (ratios, not absolute ns/op, so the guard holds across machines).
bench-report:
	$(GO) run ./cmd/benchreport -out BENCH_obs.json
	$(GO) test ./internal/mackey/ -run=TestObsOverheadGuard -bench=BenchmarkSeqMinerObs -benchtime=1x -v
	$(GO) run ./cmd/benchreport -hotpath -check

# Hot-path comparison: the mining executor (mackey.Mine: the pooled,
# window-cached trie worker) vs MineAlgorithm1, the paper's Algorithm 1
# kept as the fixed reference, on M1–M4 over a seeded Table I dataset
# sample; rewrites BENCH_hotpath.json with ns/op and allocs/op for both
# sides plus the co-mining row (one co-mined M1–M4 pass vs four
# sequential per-motif runs). Run this to refresh the committed
# reference after deliberate hot-path changes.
bench-compare:
	$(GO) run ./cmd/benchreport -hotpath -out BENCH_hotpath.json
