# Development targets. `make check` is the gate every PR must pass: it
# checks formatting, vets the tree, runs the smoke gates and every
# benchmark once (as CI does), and runs the full test suite under the
# race detector, so the concurrent InferDTD worker pool is race-checked on
# every change.

GO ?= go

.PHONY: build test vet fmt-check race check bench bench-smoke fuzz-smoke profile incremental-smoke snapshot-smoke serve-smoke pipeline-smoke perfbench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs every test at GOMAXPROCS 1 and 4 (-cpu 1,4): single-CPU
# containers still exercise the concurrent shard/commit paths under the
# race detector at a parallelism the hardware alone would never pick.
RACE_CPU ?= 1,4

race:
	$(GO) test -race -timeout 10m -cpu $(RACE_CPU) ./...

# incremental-smoke is the cache-equivalence gate: for every engine, warm
# re-inference over a memoized extraction must stay byte-identical to a
# cold from-scratch run. It also runs under `race` as part of the full
# suite; the named target keeps the check visible (and fast to run alone)
# when touching the fingerprint or cache code.
incremental-smoke:
	$(GO) test -run 'TestIncrementalColdWarmIdentical' .

# snapshot-smoke is the durable-summary gate: save -> load -> infer must
# stay byte-identical to direct inference, and shard summaries merged in
# order must reproduce single-corpus ingestion exactly.
snapshot-smoke:
	$(GO) test -run 'TestSnapshotSaveLoadInferEquivalence|TestSnapshotShardMergeEquivalence' .

# serve-smoke is the schema-service gate: it builds dtdserved and drives
# the real binary through ingest -> read -> SIGTERM drain and kill -9
# crash recovery, plus the in-process drain/recovery tests, all under the
# race detector. The server package also runs under `race` with the full
# suite; the named target is the fast loop when touching the daemon.
serve-smoke:
	$(GO) test -race -run 'TestDaemon' -count=1 .
	$(GO) test -race -count=1 ./internal/server

# pipeline-smoke is the staged-shard ingestion gate. Every batch stages
# shards: the sequential path one on the calling goroutine, the pipeline
# one per claim. It checks byte-identity between the pipelined parallel
# path and sequential ingestion (AddDocs and the encoding/xml test
# oracle) across worker counts 1..8, arena recycling and its workers+1
# cap, flush-wait accounting, FailFast prefix semantics, commit-fault
# atomicity, cancellation of both paths (mid-commit included), and the
# text-sample cap on a warm extraction, whose room caps shard staging —
# all under the race detector so the worker/committer handoff is checked
# at real parallelism.
pipeline-smoke:
	$(GO) test -race -cpu $(RACE_CPU) -count=1 \
		-run 'TestPipeline|TestParallelExtractionIdenticalToSequential|TestParallelInternIDsIdenticalAcrossWorkerCounts|TestParallelIngestion|TestAddDocsContext|TestWarmTextCap' \
		./internal/dtd .

# perfbench-smoke runs the repository benchmark's own self-tests: every
# workload short, plain and traced, with its correctness checks and the
# perturbed references that must fail them. perfbench is a module of its
# own, so `go test ./...` at the root never builds it.
perfbench-smoke:
	$(GO) -C perfbench test -count=1 .

check: fmt-check vet incremental-smoke snapshot-smoke serve-smoke pipeline-smoke perfbench-smoke bench-smoke race

# bench records the perf-trajectory workloads (Section 8.3 timings, the
# end-to-end pipeline at several ingestion worker counts, the isolated
# sequential-ingestion benchmark, the dedup-vs-verbatim
# sample pipeline comparison, the cold-vs-warm incremental inference
# contrast, and the corpus-summary save/load-vs-reingest contrast) as
# BENCH_PR10.json via cmd/benchjson. Parallel-ingestion entries carry a
# stage_ns breakdown (decode/flush-wait/commit/committer-idle) from the
# pipelined committer's PipelineStats.
#
# The ingestion benchmarks run over a generated corpus of BENCH_MB
# megabytes (default 100) so worker counts are measured against a
# workload that can amortize fan-out. The target refuses to record at
# GOMAXPROCS < 2: BENCH_PR5 silently recorded every parallel entry at
# gomaxprocs 1, which is how a parallel-ingestion regression stayed
# invisible. On a single-CPU machine, set GOMAXPROCS explicitly (e.g.
# GOMAXPROCS=4) to record an oversubscribed run — the per-entry
# gomaxprocs/cpus metrics keep it honest.
BENCH_PATTERN = BenchmarkPerf|BenchmarkEndToEndDTD|BenchmarkIngestParallel|BenchmarkIngestDecoder|BenchmarkIngestDedup|BenchmarkIncrementalInfer|BenchmarkSnapshot
BENCH_COUNT ?= 3x
BENCH_MB ?= 100
BENCH_OUT ?= BENCH_PR10.json

bench:
	@gmp="$${GOMAXPROCS:-$$(nproc)}"; \
	if [ "$$gmp" -lt 2 ]; then \
		echo "make bench: refusing to record at GOMAXPROCS=$$gmp (< 2)."; \
		echo "Parallel benchmarks on one scheduler thread measure nothing;"; \
		echo "set GOMAXPROCS>=2 explicitly to record anyway (the per-entry"; \
		echo "gomaxprocs/cpus metrics will show the real shape)."; \
		exit 1; \
	fi
	DTDINFER_BENCH_MB=$(BENCH_MB) $(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_COUNT) -timeout 60m . \
		| $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# bench-smoke is the CI gate, and part of check: every benchmark must
# run once without failing. BenchmarkIngestDecoder/fast times sequential
# ingestion on xmltok, the one decoder production runs.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# profile records CPU and allocation pprof profiles over the ingestion
# benchmark; inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
PROFILE_BENCH ?= BenchmarkIngestParallel/workers1
profile:
	$(GO) test -run xxx -bench '$(PROFILE_BENCH)' -benchtime 10x \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

# fuzz-smoke runs each fuzz target briefly; go permits one -fuzz target
# per invocation, hence one command per target. Each line caps the
# minimization of a new interesting input at 5s (-fuzzminimizetime; go's
# default is 60s): a target whose every execution runs many decodes
# (FuzzTokenizerEquivalence runs eighteen) otherwise spends its whole
# -fuzztime minimizing, at 0 execs/s, instead of fuzzing.
# FuzzTokenizerEquivalence is the differential gate holding xmltok
# ingestion to its encoding/xml test oracle at context depths 0, 1 and 2;
# FuzzContextualDecoderEquivalence holds ingestion at depths 1 and 2 to
# plain ingestion once contexts fold onto their element names;
# FuzzValidatorEquivalence holds the xmltok validator to its encoding/xml
# oracle;
# FuzzChunkEquivalence holds the tokenizer's read-buffer text spans to
# the result of a one-byte-at-a-time read; FuzzClosureOracle holds
# the GFA's word-parallel ε-closure to a breadth-first search over small
# arbitrary automata and every step of their saturation. FuzzSnapshotDecode
# also runs re-sealed inputs (CRC recomputed after mutation) so content
# validation is what gets fuzzed, and holds accepted summaries to a
# re-encoding fixed point; FuzzCodecOracle holds the in-memory snapshot
# codec to the streaming one it replaced (identical bytes written, the
# same values and the same failing step read from valid, truncated,
# bit-flipped and arbitrary streams); FuzzMultisetOracle holds the
# arena-backed sample multiset to the map-and-slices one it replaced over
# random AddIDs/AddCount/MergeMultiset/Reset scripts; FuzzDetectTypeOracle
# holds the XSD datatype detection, which stops testing a type once a value
# rules it out, to the version that tests every value against every type.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzExtraction -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzTokenizerEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzValidatorEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/dtd
	$(GO) test -run xxx -fuzz FuzzContextualDecoderEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/contextual
	$(GO) test -run xxx -fuzz FuzzStreamEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzChunkEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/xmltok
	$(GO) test -run xxx -fuzz FuzzClosureOracle -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/gfa
	$(GO) test -run xxx -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/sample
	$(GO) test -run xxx -fuzz FuzzMultisetOracle -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/sample
	$(GO) test -run xxx -fuzz FuzzCodecOracle -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/snapshot
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/regex
	$(GO) test -run xxx -fuzz FuzzDetectTypeOracle -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/xsd
