# Developer entry points for the dcSR reproduction. `make verify` is the
# gate every change must pass (see README.md); the individual targets are
# its pieces.

GO ?= go

.PHONY: verify build vet lint test loc exports fuzz-smoke bench bench-all bench-e2e

# Every line but the last fails fast on something the race sweep would
# reach only after minutes, or never: the pinned goldens (Prepare, codec,
# training, int8 state, wire, the in-loop YUV entry points — never
# regenerate one to make a change pass); inference's O(width) working
# set (TestWorkspaceFootprint) and the whole-image ring walks of the
# row kernels in both precisions, their bits and their zero steady-state
# allocations; the int8-grid payload's contract (an artifact written before it
# still plays, writers drop a pinned grid, hostile dcW6 payloads are
# refused, a fused delta reconstruction falls back, and the FMA ratchet
# over four cross-compiled architectures) and the model cache's
# accounting contract (paper Fig 7's walk, Fig 10's budgeted bytes); the
# artifact object store's heal-on-corruption contract (a Get drops a
# truncated or flipped object, a Put rewrites one); the receive path's
# contract (weights read directly decode to the portable loop's bits,
# typed fetches recycle their buffers, raw ones hand them over); the
# metrics exposition scrapers parse (every text line and JSON field,
# the cumulative buckets, the quantile estimates); the publisher's
# quality gates (their judge plays a segment as the viewer does, and the
# in-loop YUV entry points equal the RGB path they reuse, on every
# kernel lane); the nested bench/ module, which root ./... cannot see
# and where an API break in bench/adapter.go shows first; the portable kernels, which on
# an AVX2 host otherwise run only where a test switches the assembly
# off; the arm64 cross-build (offline — pure Go), where the .s files
# do not apply; the s390x vet of internal/nn, a big-endian compile of
# the portable weight read; the darwin/amd64 cross-build, which keeps
# the .s files but not Linux's AMX permission request; and the payload
# ownership test twenty times under -race. The sweep's -timeout covers
# internal/experiments, which trains real models and outlasts the
# default 10m under -race.
verify: build vet lint fuzz-smoke
	$(GO) test -run 'Golden' ./internal/...
	$(GO) test -run 'TestParentArtifactPlays|TestWritersDropGrid|TestLoadWeightsRejectsHostileGrid|TestFusedReconstructionFallsBack|TestFMARatchet|TestPlayerCacheBudget|TestPlayerDeltaCacheBudget|TestSessionBudgetEvictsAndRefetches|TestSessionAmpleBudgetMatchesUnbounded|TestPaperFig7WalkThrough|TestLoadModelAllocatesItsWeights|TestLoadedModelTrainsLikeNew|TestWorkspaceFootprint|TestConv2DInferMatchesForward|TestConv2DInferInt8MatchesRef|TestConv2DInferInt8SerialAllocFree|TestInt8MapRowToMap|TestDeltaCorruptPayload|TestApplyWeightsDeltaAllocs|TestDiskCorruptObjectRecovered|TestDiskPutRewritesCorruptObject|TestReadFloatsLanesAgree|TestClientCallsRecycleReceiveBuffers|TestClientPayloadOwnership|TestExpositionPins|TestQuantilePins|TestEnhanceYUVMatchesRGBPath|TestJudgePlaysWhatViewerPlays' . ./internal/core ./internal/nn ./internal/stream ./internal/edsr ./internal/tensor ./internal/modelstore ./internal/transport ./internal/obs
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	$(GO) vet -tags purego ./... && $(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/edsr ./internal/codec
	GOARCH=arm64 $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/nn
	GOOS=darwin GOARCH=amd64 $(GO) build ./...
	$(GO) test -race -count=20 -run TestClientPayloadOwnership ./internal/transport
	$(GO) test -race -timeout 30m ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (docs/LINTING.md), seven analyzers:
# metric-name discipline, determinism, error handling, goroutine joins,
# context threading, typed atomics and error matching.
lint:
	$(GO) run ./cmd/dcsr-lint ./...

test:
	$(GO) test ./...

# Non-test Go lines per package outside bench/ (a testdata tree counts
# toward the package that owns it), then the total: the size figure
# CHANGES.md and ROADMAP.md quote. The second column is the package's
# assembly (.s) lines, with a total of its own.
loc:
	@find . \( -path ./bench -o -path './.*' \) -prune -o \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) -print | sort | \
	awk '{ p = $$0; if (!sub(/\/testdata\/.*/, "", p)) sub(/\/[^\/]*$$/, "", p); sub(/^\.\//, "", p); \
	  asm = $$0 ~ /\.s$$/; if (!(p in n)) { order[++k] = p; n[p] = 0; a[p] = 0 } \
	  while ((getline l < $$0) > 0) { if (asm) { a[p]++; atotal++ } else { n[p]++; total++ } } close($$0) } \
	  END { for (i = 1; i <= k; i++) printf "%7d %6d  %s\n", n[order[i]], a[order[i]], order[i]; printf "%7d %6d  total\n", total, atotal }'

# Exported names of internal/ and of the root facade that no non-test
# file outside their own package names (bench/ included), one
# file:line: Name per line, package by package. A report, not a gate:
# a method reached only through an interface or a field only through
# reflection is listed too and needs judgement.
exports:
	@$(GO) run ./cmd/dcsr-exports

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

# Kernel microbenchmarks: the tensor kernels (the float32 and the int8
# body convolution once per lane the host has,
# BenchmarkConv2DInfer270p/{avx512,avx2,portable} and
# BenchmarkConv2DInferInt8/{amx,avx512,avx2,portable}), the alloc-free
# Enhance path in both precisions (BenchmarkEnhanceInt8270p is the whole
# int8 frame) and the reused decoder (BenchmarkDecode, MB/op = the
# frames it returns), with allocation stats. The tensor and edsr ones
# run on one core (-cpu 1), like the gated benchmark: on a time-shared
# vCPU the parallel split's timing says nothing about the kernels. The
# gated end-to-end and per-layer numbers are bench-e2e's. Also
# writes, via dcsr-bench, BENCH_swarm.json (the fleet-load harness: 1000
# concurrent clients vs admission control — p50/p99 per op, shed rate,
# Jain fairness; the capacity-planning numbers docs/SERVING.md works
# from). The paper's tables are `go run ./cmd/dcsr-bench` (-list names
# them).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkGEMM|BenchmarkConv2DInfer|BenchmarkIm2col' -benchmem -cpu 1 ./internal/tensor/
	$(GO) test -run '^$$' -bench 'BenchmarkEnhance(Int8)?(270|540)p|BenchmarkForwardInference' -benchmem -cpu 1 ./internal/edsr/
	$(GO) test -run '^$$' -bench 'BenchmarkDecode' -benchmem ./internal/codec/
	$(GO) run ./cmd/dcsr-bench -fast -only swarm -json BENCH_swarm.json

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
