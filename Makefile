# Developer entry points for the dcSR reproduction. `make verify` is the
# gate every change must pass (see README.md); the individual targets are
# its pieces.

GO ?= go

.PHONY: verify build vet lint lint-cold test fuzz-smoke bench bench-all bench-e2e

# The experiments package trains real models and takes well over the
# default 10m per-package limit under race instrumentation; the longer
# -timeout covers it without masking hangs elsewhere. The golden test
# runs first and by name: staged Prepare must stay bit-identical to the
# single-pass pipeline before anything else is worth checking. The wire
# format and window-rotation tests run next, also by name: they pin the
# one request frame and response header byte for byte (golden fixtures,
# a cut at every offset, retired magics rejected; fuzz-smoke then runs
# both parsers' fuzz targets for a few seconds each) and the fake-clock
# determinism of the rolling-window metrics before the full race sweep
# repeats them among everything else. The admission-under-load test
# then pins the fleet serving contract (typed shedding under
# concurrency) by name before the sweep. The int8 block pins the
# quantized path: kernel↔reference parity, cross-worker bit
# determinism under race, and the calibration quality gate actually
# forcing a float32 fallback. The model-stream block pins the dcW5
# delta codec round-trip, the delta_encode stage (client assembly
# bit-identical, gate fallback), and the wire contract: backbone +
# delta playback pixel-identical to origin, the full-model OpModel path
# for videos without a backbone, corruption falling back gracefully. The
# bench/ module is nested (its own go.mod), so root ./... never sees it:
# vet and its -tiny test run (~4 s) are invoked with -C, which is what
# catches an API break in bench/adapter.go before the pipeline does. The
# purego block keeps the kernel fallback from rotting: on an AVX2 host
# the portable Go kernels otherwise run only where a test switches the
# assembly off, so vet and the three kernel-bearing packages run once
# with the assembly compiled out, and the arm64 cross-build (offline —
# pure Go) proves the tree builds where the .s files do not apply. The
# codec rides in the same block (its PSADBW SAD kernel has the same
# portable twin) and is pinned by name right after the Prepare golden:
# TestCodecGolden holds every stream byte and decoded plane to digests
# recorded before the codec fast paths existed, and the *MatchesRef
# differentials hold each fast routine to the slow one it replaced. The
# working-set block pins that activations belong to the pass and not to
# the layers: TestTrainGolden holds every trained weight to digests
# recorded before the training step stopped allocating (both worker
# counts; the purego line above repeats it on the portable kernels),
# TestTrainStepAllocs and the TestWorkspace* set hold the allocation and
# footprint contracts and shared-vs-private bit equality,
# TestPreparedRetainsNoActivations that a Prepared pins no feature map —
# and the concurrency half (gates fanned out over forEach workers three
# times with equal results, two sessions at once) runs under -race.
verify: build vet lint fuzz-smoke
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...
	$(GO) vet -tags purego ./... && $(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/edsr ./internal/codec
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -run 'TestFixtures/(lockorder|lostcancel|atomicfield|errcmp|timerleak)' -v ./internal/lint/
	$(GO) test -race -run 'TestRunnerDeterministic|TestRunnerCache' -v ./internal/lint/
	$(GO) test -run 'TestPrepareGoldenEquivalence' -v ./internal/core/
	$(GO) test -run 'TestTrainGolden|TestPreparedRetainsNoActivations|TestTrainStepAllocs|TestWorkspace' -v ./internal/edsr/ ./internal/core/
	$(GO) test -race -run 'TestWorkspaceGatesRepeatable|TestWorkspaceConcurrentSessions|TestWorkspaceSharedMatchesPrivate' -v ./internal/edsr/ ./internal/core/
	$(GO) test -run 'TestCodecGolden|MatchesRef$$' -v ./internal/codec/
	$(GO) test -run 'TestGemmInt8MatchesRef|TestConv2DInferInt8MatchesRef|TestConv2DInferInt8Deterministic' -v ./internal/tensor/
	$(GO) test -race -run 'TestEnhanceInt8DeterministicAcrossWorkers' -v ./internal/edsr/
	$(GO) test -run 'TestQuantQualityGateForcesFallback|TestQuantPersistRoundTrip' -v ./internal/core/
	$(GO) test -run 'TestWireGolden|TestRequestCutAtEveryOffset|TestOldGenerationsRejected|TestResponsePayloadBound' -v ./internal/transport/
	$(GO) test -race -run 'TestAdmissionConcurrentLoad|TestRetryPolicyHonorsShedHint' -v ./internal/transport/
	$(GO) test -run 'TestWindowedCounterRotationDeterminism' -v ./internal/obs/
	$(GO) test -run 'TestDeltaRoundTripProperty|TestDeltaInt8Composition|TestDeltaWrongBackbone' -v ./internal/nn/
	$(GO) test -run 'TestDeltaStageModelStream|TestDeltaGateForcesFallback' -v ./internal/core/
	$(GO) test -run 'TestPlayModelStreamOverWire|TestModelStreamInterop|TestModelStreamCorruptionFallsBack' -v ./internal/transport/
	$(GO) test -race -timeout 30m ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (docs/LINTING.md): metric-name
# discipline, determinism, error handling, nil-safety, goroutine joins,
# lock ordering, cancel/timer hygiene, atomic-field and error-matching
# discipline. Uses the content-hash diagnostic cache under .lintcache/;
# lint-cold bypasses it for a full re-analysis.
lint:
	$(GO) run ./cmd/dcsr-lint ./...

lint-cold:
	$(GO) run ./cmd/dcsr-lint -no-cache ./...

test:
	$(GO) test ./...

# A few seconds of native fuzzing per wire parser, per kernel
# differential (assembly vs portable vs reference, bit for bit) and for
# the codec's stream decoder (error or frames, never a panic, bounded
# allocation); go test accepts one -fuzz target per run. A crasher is
# written under the package's testdata/fuzz/ — commit it as a seed with
# the fix.
fuzz-smoke:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReadRequest$$' -fuzztime 5s
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzReadResponse$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzGemmKernels$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzConvKernels$$' -fuzztime 5s
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzCodecKernels$$' -fuzztime 5s

# Perf-trajectory benchmarks: the tensor kernels, the alloc-free
# Enhance path, and the paper's Fig 8 FPS sweep, all with allocation
# stats. Also emits BENCH_kernels.json (machine-readable ns/op, B/op,
# allocs/op, FPS rows) via dcsr-bench so runs can be diffed across
# checkouts on one machine, BENCH_cachebudget.json (model-cache
# hit/eviction/bandwidth accounting across byte budgets),
# BENCH_swarm.json (the fleet-load harness: 1000 concurrent clients vs
# admission control — p50/p99 per op, shed rate, Jain fairness; the
# capacity-planning numbers docs/SERVING.md works from), and
# BENCH_quant.json (int8 vs float32 Enhance speedup plus the
# calibration quality-gate sweep over a prepared clip), and
# BENCH_modelstream.json (backbone + delta shipping: model bytes per
# session as a function of clusters touched, vs the full-model wire).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkGEMM|BenchmarkConv2DInfer|BenchmarkIm2col' -benchmem ./internal/tensor/
	$(GO) test -run '^$$' -bench 'BenchmarkEnhance(Int8)?(270|540)p|BenchmarkForwardInference' -benchmem ./internal/edsr/
	$(GO) test -run '^$$' -bench 'BenchmarkFig8' -benchmem .
	$(GO) run ./cmd/dcsr-bench -only kernels -json BENCH_kernels.json
	$(GO) run ./cmd/dcsr-bench -fast -only cachebudget -json BENCH_cachebudget.json
	$(GO) run ./cmd/dcsr-bench -fast -only swarm -json BENCH_swarm.json
	$(GO) run ./cmd/dcsr-bench -fast -only quant -json BENCH_quant.json
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
