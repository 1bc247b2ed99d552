# Development targets.  `make ci` is the full gate (see ci.sh); the tier-1
# gate the project must always keep green is `make build test`
# (= go build ./... && go test ./..., per ROADMAP.md).  `make loc` prints
# the non-test Go line counts a refactor is judged by; it gates nothing.

GO ?= go

.PHONY: all loc fmt vet build test benchmark-test fma schedule race chaos cache-ablation cache-persist crash-resume fleet-bench stream-bench fuzz-smoke ingest-check bench ci

all: build

# Non-test Go lines of each internal/ and cmd/ package, then of every Go
# file outside benchmark/ (its own module) and hidden build directories.
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		printf '%7d  %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$$d"; \
	done
	@printf '%7d  total outside benchmark/\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -exec cat {} + | wc -l)"

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	GOPROXY=off GOFLAGS= $(GO) -C benchmark vet .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark is its own module (benchmark/go.mod), so go build ./...
# never compiles it; it imports dsp, smformat, stream and pipeline, so an
# exported-API change there must be checked against it here.
benchmark-test:
	GOPROXY=off GOFLAGS= $(GO) -C benchmark test .

# The register-blocked FIR and Duhamel kernels must match their
# one-output reference loops bit for bit also where the compiler may fuse
# acc += t*x into one FMA.  Go does not fuse on amd64 (GOAMD64=v3
# included) but does on arm64, so the kernels write their products as
# explicit float64(a*b) conversions, which the spec forbids fusing, and an
# arm64 build of them must show no fused instruction.
fma:
	GOAMD64=v3 $(GO) test -count=1 ./internal/dsp/ ./internal/response/
	@dir="$$(mktemp -d)"; \
	GOARCH=arm64 $(GO) test -c -o "$$dir/dsp.test" ./internal/dsp/ && \
	GOARCH=arm64 $(GO) test -c -o "$$dir/response.test" ./internal/response/ && \
	$(GO) tool objdump -s 'dsp\.(firKernel|firShared4|firDot|referenceFIR)$$' "$$dir/dsp.test" >"$$dir/kernels.s" && \
	$(GO) tool objdump -s 'response\.(duhamelWith|conv4|dotFrom|referenceDuhamel)' "$$dir/response.test" >>"$$dir/kernels.s"; \
	status=$$?; \
	if [ $$status -eq 0 ] && { [ "$$(grep -c '^TEXT' "$$dir/kernels.s")" -lt 6 ] || grep -E 'FN?M(ADD|SUB)' "$$dir/kernels.s"; }; then \
		echo "fused multiply-add in a bit-exact kernel, or a kernel missing from the arm64 listing"; status=1; \
	fi; \
	rm -rf "$$dir"; exit $$status

# Schedule independence: tests whose outcome once depended on goroutine
# timing, the staged variants' products and span tree now that they run on
# the concurrent dataflow executor, and the fleet's products on the shared
# worker loop, streamed and not, the retention checks, which read
# reachability after a forced GC, and the temp-pool checks (no in-flight
# temp in a listing, concurrent writers into one directory, no temp left
# by a failed or aborted write or by any run), 30 runs each.
schedule:
	$(GO) test -count=30 -run 'TestPipelinedTargetedChaosMatchesFullParallel|TestArtifactCacheCounters|TestVariantsProduceIdenticalOutputs|TestSpanTreeMatchesTimings|TestRunFleetMatchesIndividualRuns|TestRunFleetStreamingMatchesRun' ./internal/pipeline/
	$(GO) test -count=30 -run 'TestRunTraceAndMetrics' ./cmd/smproc/
	$(GO) test -count=30 -run 'TestRunReleasesFinishedJob' ./internal/dataflow/
	$(GO) test -count=30 -run 'TestRunFleetReleasesFinishedEvents|TestRunBatchReleasesFinishedEvents|TestMemoRelease' ./internal/pipeline/
	$(GO) test -count=30 -run 'TestListingShowsNoInFlightTemp|TestConcurrentWritersOneDirectory|TestAbortLeavesNothing|TestWriteFailureRemovesTemp' ./internal/storage/
	$(GO) test -count=30 -run 'TestRunsLeaveNoTempPool|TestCancelledRunLeavesNoTempPool|TestPersistentCacheOnOtherFilesystem' ./internal/pipeline/

# The parallel runtime, the dataflow scheduler (one worker loop for single
# graphs and fleets), and the pipeline drivers carry the concurrency and
# the occupancy instrumentation; they must stay race-clean, and so must the
# shared artifact store, the ingest plane, the storage plane, the
# streaming chunk plane, and the mutex-guarded FFT table cache under them.
race:
	$(GO) test -race ./internal/parallel/... ./internal/dataflow/... ./internal/pipeline/... ./internal/ingest/... ./internal/artifact/... ./internal/storage/... ./internal/stream/... ./internal/dsp/...

# Seeded chaos soak: the fault-injection suite (rate sweep, poisoned-record
# batch, retry/quarantine engine) under the race detector, with the artifact
# cache enabled as in production.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Partial|Quarantine|RetryOp|StageMove' ./internal/pipeline/... ./internal/faults/...

# Cache-ablation smoke: every variant on a small event, artifact cache on
# and off, must produce byte-identical outputs, with cache hits observed on
# the cached run.
cache-ablation:
	$(GO) test -count=1 -run 'ArtifactCache' ./internal/pipeline/...

# Persistent action-cache suite: warm restarts must skip unchanged records
# with byte-identical outputs on both storage backends, a corrupted cache
# entry (truncated blob) must degrade to recomputation, never error, and
# smproc -cache-fsck must find the hardlinked blobs clean.
cache-persist:
	$(GO) test -count=1 -run 'WarmRestart|PersistentCache|ActionCache|CacheFsck' ./internal/pipeline/... ./internal/artifact/... ./cmd/smproc/

# Crash-safety suite: the kill -9 crash matrix (subprocess SIGKILLs itself
# at each durability point, resume must restore byte-identical outputs
# re-executing only unfinished subgraphs), journal replay/parse, and the
# .smcache integrity scrubber.
crash-resume:
	$(GO) test -count=1 -run 'CrashResume|CrashKills|CrashUnarmed|Resume|Journal|Scrub' ./internal/pipeline/... ./internal/faults/... ./internal/artifact/...

# Short fuzz smoke over the format round-trip fuzzers, the foreign-format
# ingest decoders, the crash-recovery state parsers (run journal,
# action-cache manifest), and the number codecs against strconv; the CI
# gate runs the same targets for ~5s each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzV1RoundTrip' -fuzztime 5s ./internal/smformat/
	$(GO) test -run '^$$' -fuzz 'FuzzGEMRoundTrip' -fuzztime 5s ./internal/smformat/
	$(GO) test -run '^$$' -fuzz 'FuzzV1ADecode' -fuzztime 5s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz 'FuzzCSVDecode' -fuzztime 5s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz 'FuzzJournalParse' -fuzztime 5s ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz 'FuzzActionManifest' -fuzztime 5s ./internal/artifact/
	$(GO) test -run '^$$' -fuzz 'FuzzAppendE17' -fuzztime 5s ./internal/numtext/
	$(GO) test -run '^$$' -fuzz 'FuzzAppendFixed2' -fuzztime 5s ./internal/numtext/
	$(GO) test -run '^$$' -fuzz 'FuzzParseFloat' -fuzztime 5s ./internal/numtext/

# Fleet saturation smoke: the multi-event scheduler benchmark on a tiny
# queue, with the acceptance criteria evaluated (throughput gain, p99
# latency bound, no policy slower than sequential).
fleet-bench:
	$(GO) run ./cmd/benchtables -fleet -smoke -check

# Streaming-plane memory-ablation smoke: materialized vs streaming Pipelined
# runs on the mem backend, with the acceptance criteria evaluated (flat
# StorageBytesPeak within the chunk budget, byte-identical outputs).
stream-bench:
	$(GO) run ./cmd/benchtables -streambench -smoke -check

# Ingest-plane suite: the format registry round-trip/sniffing/QC unit
# tests, plus the pipeline-level acceptance tests — every registered format
# (and a mixed-format event) must produce byte-identical products, the
# -format override must win over sniffing, the QC gate must quarantine each
# defect class with its typed reason (materialized and streaming, and
# across -resume), and azimuth rotation must match native products.
ingest-check:
	$(GO) test -count=1 ./internal/ingest/
	$(GO) test -count=1 -run 'TestFormats|TestFormatOverride|TestQCGate|TestAzimuth|TestCorruptInput' ./internal/pipeline/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

ci: fmt vet build test benchmark-test fma schedule fuzz-smoke race chaos cache-ablation cache-persist crash-resume fleet-bench stream-bench ingest-check
