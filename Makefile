# Tier-1 gate for this repository: everything a change must keep green.
# `make check` is what CI (and the README) point at.

GO ?= go

.PHONY: check build test vet race kernel-check codec-check bench-smoke examples-check chaos-cluster bench bench-json bench-compare bench-paper obs-cluster-check transport-check clean

check: build test vet race kernel-check codec-check bench-smoke examples-check transport-check chaos-cluster obs-cluster-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also covers the nested benchmark module (the root ./... skips it) and
# fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# The serving subsystem's single-writer/multi-reader contract, the engine
# underneath it (chaos soak included) and the fault and cluster layers are
# exercised under the race detector.
race:
	$(GO) test -race ./internal/serve ./internal/core
	$(GO) test -race -count=1 ./internal/fault ./internal/cluster

# Kernel gate: the min-plus kernels have an AVX2 assembly body and a scalar
# one (internal/kernel/minplus_*). vet's asmdecl pass checks the assembly's
# frame layout against its Go declarations; the default-tag run holds the
# vector body to the scalar one (fuzz seeds, body-selection test), and short
# fuzzing runs of the masked block body and of the grouped multi-pivot body
# against the scalar bodies and a one-pivot-at-a-time reference go past the
# seeds; the purego run repeats the tile/worker/masked invariance,
# pruned-edge-scan and Runner==Engine tests on the scalar body alone. -race
# builds select the scalar body through the same build tag, so the race
# detector sees every row write.
kernel-check:
	$(GO) vet ./internal/kernel
	$(GO) test -count=1 ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzMinPlusHopsMasked$$' -fuzztime 10s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzMinPlusGroup$$' -fuzztime 10s ./internal/kernel
	$(GO) test -count=1 -tags purego ./internal/kernel ./internal/core ./internal/rank

# Codec gate: short fuzzing runs past the seeds of the decoders that read
# bytes from outside the process — the checkpoint restore and the recovery
# shard (one DV row decoder under both) and the Prometheus exposition
# parser (behind ParseText and so the serve client's /metrics read).
codec-check:
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeShard$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseFamilies$$' -fuzztime 10s ./internal/obs

# Benchmark smoke test: benchmark/ is a nested module the root `go test
# ./...` skips; its -scale tiny run drives all six workloads end to end
# (~10 s), so a refactor that breaks what the benchmark uses fails here.
bench-smoke:
	cd benchmark && $(GO) test -count=1 ./...

# Examples gate: every example runs to completion (~6 s together). Each
# checks itself and exits non-zero on a mismatch — faulttolerance is the one
# end-to-end driver of the simulator's lossy links outside tests (checkpoint
# resume and the chaos run must both match the fault-free run), liveserve
# verifies the served answer against the oracle of the grown graph.
EXAMPLES = citations faulttolerance liveserve loadbalance quickstart sensornet socialstream
examples-check:
	@for ex in $(EXAMPLES); do echo "== examples/$$ex"; $(GO) run ./examples/$$ex || exit 1; done

# Cluster chaos gate: the real-OS-process robustness suite under the race
# detector — SIGKILL one of three ranks mid-recombination (heartbeat
# detection, degraded convergence, shard-restored rejoin, bit-identical
# result), dynamic vertex additions across processes, and the -launch path
# of rank.Main spawning three ranks — plus an end-to-end run of the
# aacluster binary streaming a vertex batch over the wire, verified against
# the exact oracle of the grown graph. Every multi-process test starts its
# ranks through rank.Main, the code the binary runs.
chaos-cluster:
	$(GO) test -race -count=1 -run 'TestChaosSIGKILLRejoinBitIdentical|TestMultiProcessTCPDynamicEvents|TestRunnerInprocCrashRejoinBitIdentical|TestLaunchMeshEventsVerify' ./internal/rank
	$(GO) run ./cmd/aacluster -launch -p 3 -n 300 -events 5 -verify

bench:
	$(GO) test -bench=. -benchmem ./...

# Archive the RC-phase benchmarks as JSON (ns/op, allocs/op, and per-step
# shipping metrics) for diffing runs. The paper's figures are regenerated by
# `go run ./cmd/aaexperiments`, not benched here. BENCHTIME trades archival
# stability for runtime. BenchmarkPaperScale is in the sweep but self-skips
# unless AA_PAPER_BENCH=1 is exported, so the default archive stays
# laptop-safe while a paper-tier run lands in the same JSON.
BENCHTIME ?= 2s
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkRC|BenchmarkTransportRoundTrip|BenchmarkPaperScale' -benchtime $(BENCHTIME) -benchmem ./... \
		| $(GO) run ./cmd/benchjson > BENCH_rc.json

# Regression gate: rerun the kernel's per-call benchmarks (narrow delta
# windows and one full row) and the RC relax/refine-phase benchmarks (plus
# the tracer-enabled step benchmark) and fail if any ns/op regresses more
# than 15% against the committed baseline, or if the baseline is unusable.
bench-compare:
	{ $(GO) test -run '^$$' -bench 'BenchmarkRCKernelHops' -benchmem ./internal/kernel ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRCRelaxPhase|BenchmarkRCRefinePhase|BenchmarkRCStepTraced' -benchmem ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkTransportRoundTrip' -benchmem ./internal/transport ; } \
		| $(GO) run ./cmd/benchjson -compare BENCH_rc.json

# Paper-scale tier (opt-in, not part of `make check`): one full n=50,000 /
# P=16 absorption trajectory — ~20 GB of DV state and minutes of wall time.
# The AA_PAPER_BENCH gate keeps `bench`/`bench-json` laptop-safe; -benchtime
# 1x runs exactly one trajectory. Results belong in EXPERIMENTS.md.
bench-paper:
	AA_PAPER_BENCH=1 $(GO) test -run '^$$' -bench 'BenchmarkPaperScale' -benchtime 1x -timeout 120m -v .

# Transport gate: the pluggable message plane (frames, codec, fault
# wrapper, TCP links) and the one-rank-per-process runner with its command
# entry point rank.Main (cmd/aacluster only calls it) under the race
# detector — including the integration test that spawns real OS processes
# over a TCP mesh and checks bit-identical convergence against inproc —
# plus short fuzzing runs of the frame decoder, the mesh manifest loader
# and the rejoin-go payload parser past their seeds.
transport-check:
	$(GO) vet ./internal/transport ./internal/rank
	$(GO) test -race -count=1 ./internal/transport ./internal/rank
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzLoadPeers$$' -fuzztime 10s ./internal/rank
	$(GO) test -run '^$$' -fuzz '^FuzzRejoinGo$$' -fuzztime 10s ./internal/rank

# Cluster observability gate: the rank hot path's zero-alloc telemetry
# contract, the Prometheus text parse/merge/aggregate layer (including a
# rank dying mid-scrape), deterministic multi-file trace merging, and the
# acceptance test — three real OS processes each serving /metrics, scraped
# into one well-formed merged exposition with live cross-rank series.
obs-cluster-check:
	$(GO) test -run 'TestRankTelemetryZeroAlloc' -count=1 ./internal/rank
	$(GO) test -count=1 ./internal/obs
	$(GO) test -run 'TestClusterScrapeMergedMetrics|TestRunnerTelemetrySnapshot' -count=1 ./internal/rank

clean:
	$(GO) clean ./...
