# Developer entry points for the dcSR reproduction. `make verify` is the
# gate every change must pass (see README.md); the individual targets are
# its pieces.

GO ?= go

.PHONY: verify build vet lint test fuzz-smoke bench bench-all bench-e2e

# Every line but the last fails fast on something the race sweep would
# reach only after minutes, or never: the pinned goldens (Prepare, codec,
# training, int8 state, wire — never regenerate one to make a change
# pass); the int8-grid payload's contract (an artifact written before it
# still plays, writers drop a pinned grid, hostile dcW6 payloads are
# refused, a fused delta reconstruction falls back, and the FMA ratchet
# over four cross-compiled architectures); the
# nested bench/ module, which root ./... cannot see and where an API
# break in bench/adapter.go shows first; the portable kernels, which on
# an AVX2 host otherwise run only where a test switches the assembly
# off; and the arm64 cross-build (offline — pure Go), where the .s files
# do not apply. The sweep's -timeout covers internal/experiments, which
# trains real models and outlasts the default 10m under -race.
verify: build vet lint fuzz-smoke
	$(GO) test -run 'Golden' ./internal/...
	$(GO) test -run 'TestParentArtifactPlays|TestWritersDropGrid|TestLoadWeightsRejectsHostileGrid|TestFusedReconstructionFallsBack|TestFMARatchet' . ./internal/core ./internal/nn
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	$(GO) vet -tags purego ./... && $(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/edsr ./internal/codec
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -race -timeout 30m ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (docs/LINTING.md), nine analyzers:
# metric-name discipline, determinism, error handling, goroutine joins,
# context threading, lock ordering, typed atomics, error matching and
# timer hygiene.
lint:
	$(GO) run ./cmd/dcsr-lint ./...

test:
	$(GO) test ./...

# A few seconds of native fuzzing per wire parser (frames, manifest,
# directory), per kernel differential (every lane vs the reference, bit
# for bit), for the weight decoders (dcW1 and dcW6, dcW5 delta), for the codec's
# stream decoder and for an artifact's stages.json root under core.Load
# (error or a valid result, never a panic, bounded allocation); go test
# accepts one -fuzz target per run. A crasher is written under the
# package's testdata/fuzz/ — commit it as a seed with the fix.
fuzz-smoke:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReadRequest$$' -fuzztime 5s
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReadResponse$$' -fuzztime 5s
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzDecodeWireManifest$$' -fuzztime 5s
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzDecodeWireDirectory$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzGemmKernels$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzConvKernels$$' -fuzztime 5s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzLoadWeights$$' -fuzztime 5s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzApplyWeightsDelta$$' -fuzztime 5s
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzCodecKernels$$' -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLoadRoot$$' -fuzztime 5s

# Perf-trajectory benchmarks: the tensor kernels (the int8 body
# convolution once per lane the host has, BenchmarkConv2DInferInt8/
# {vnni,avx2,portable}), the alloc-free Enhance path in both precisions
# (BenchmarkEnhanceInt8270p is the whole int8 frame), and the paper's
# Fig 8 FPS sweep, all with allocation stats (the gated per-layer numbers
# are bench-e2e's). Also emits, via dcsr-bench, BENCH_cachebudget.json
# (model-cache hit/eviction/bandwidth accounting across byte budgets),
# BENCH_swarm.json (the fleet-load harness: 1000 concurrent clients vs
# admission control — p50/p99 per op, shed rate, Jain fairness; the
# capacity-planning numbers docs/SERVING.md works from) and
# BENCH_modelstream.json (backbone + delta shipping: model bytes per
# session as a function of clusters touched, vs the full-model wire).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkGEMM|BenchmarkConv2DInfer|BenchmarkIm2col' -benchmem ./internal/tensor/
	$(GO) test -run '^$$' -bench 'BenchmarkEnhance(Int8)?(270|540)p|BenchmarkForwardInference' -benchmem ./internal/edsr/
	$(GO) test -run '^$$' -bench 'BenchmarkFig8' -benchmem .
	$(GO) run ./cmd/dcsr-bench -fast -only cachebudget -json BENCH_cachebudget.json
	$(GO) run ./cmd/dcsr-bench -fast -only swarm -json BENCH_swarm.json
	$(GO) run ./cmd/dcsr-bench -fast -only modelstream -json BENCH_modelstream.json

# The repo's end-to-end benchmark (BENCHMARK.json, bench/README.md): all
# four workloads over seeds 1..10, run outputs appended to BENCH_OUT (the
# file `go run -C bench . -compare a b` reads; bench/out/ is gitignored).
BENCH_OUT ?= bench/out/all.txt
bench-e2e:
	mkdir -p $(dir $(BENCH_OUT))
	bash bench/all.sh $(BENCH_OUT)

# Full evaluation-scale benchmark suite (minutes), including the 1080p
# Enhance benchmark.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...
