#!/bin/sh
# CI gate for accelproc.  Order matters: cheap static checks first, the
# tier-1 gate (go build ./... && go test ./..., per ROADMAP.md) next, the
# race-detector pass over the concurrent packages last.
set -eu

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...
GOPROXY=off GOFLAGS= go -C benchmark vet .

echo "== build =="
go build ./...

echo "== test =="
go test ./...

echo "== benchmark module (its own go.mod, so go build ./... never compiles it; it imports the pipeline's exported API) =="
GOPROXY=off GOFLAGS= go -C benchmark test .

echo "== FIR and Duhamel kernels under FMA (no fused multiply-add in the bit-exact kernels or their reference loops; arm64 fuses where amd64 does not) =="
GOAMD64=v3 go test -count=1 ./internal/dsp/ ./internal/response/
fmadir="$(mktemp -d)"
GOARCH=arm64 go test -c -o "$fmadir/dsp.test" ./internal/dsp/
GOARCH=arm64 go test -c -o "$fmadir/response.test" ./internal/response/
go tool objdump -s 'dsp\.(firKernel|firShared4|firDot|referenceFIR)$' "$fmadir/dsp.test" >"$fmadir/kernels.s"
go tool objdump -s 'response\.(duhamelWith|conv4|dotFrom|referenceDuhamel)' "$fmadir/response.test" >>"$fmadir/kernels.s"
if [ "$(grep -c '^TEXT' "$fmadir/kernels.s")" -lt 6 ] || grep -E 'FN?M(ADD|SUB)' "$fmadir/kernels.s"; then
	echo "fused multiply-add in a bit-exact kernel, or a kernel missing from the arm64 listing"
	rm -rf "$fmadir"
	exit 1
fi
rm -rf "$fmadir"

echo "== schedule independence (tests whose outcome once depended on goroutine timing, the staged variants' products and span tree on the concurrent dataflow executor, and the fleet's products on the shared worker loop, streamed and not, 30 runs each) =="
go test -count=30 -run 'TestPipelinedTargetedChaosMatchesFullParallel|TestArtifactCacheCounters|TestVariantsProduceIdenticalOutputs|TestSpanTreeMatchesTimings|TestRunFleetMatchesIndividualRuns|TestRunFleetStreamingMatchesRun' ./internal/pipeline/
go test -count=30 -run 'TestRunTraceAndMetrics' ./cmd/smproc/
echo "== retention (what a finished job or a drained graph leaves reachable, checked after a forced GC, 30 runs each) =="
go test -count=30 -run 'TestRunReleasesFinishedJob' ./internal/dataflow/
go test -count=30 -run 'TestRunFleetReleasesFinishedEvents|TestRunBatchReleasesFinishedEvents|TestMemoRelease' ./internal/pipeline/

echo "== bench smoke (every benchmark compiles and runs once) =="
go test -bench . -benchtime=1x -run '^$' ./...

echo "== fuzz smoke (format + ingest + recovery-state parsers + number codecs against strconv, ~5s each) =="
go test -run '^$' -fuzz 'FuzzV1RoundTrip' -fuzztime 5s ./internal/smformat/
go test -run '^$' -fuzz 'FuzzGEMRoundTrip' -fuzztime 5s ./internal/smformat/
go test -run '^$' -fuzz 'FuzzV1ADecode' -fuzztime 5s ./internal/ingest/
go test -run '^$' -fuzz 'FuzzCSVDecode' -fuzztime 5s ./internal/ingest/
go test -run '^$' -fuzz 'FuzzJournalParse' -fuzztime 5s ./internal/pipeline/
go test -run '^$' -fuzz 'FuzzActionManifest' -fuzztime 5s ./internal/artifact/
go test -run '^$' -fuzz 'FuzzAppendE17' -fuzztime 5s ./internal/numtext/
go test -run '^$' -fuzz 'FuzzAppendFixed2' -fuzztime 5s ./internal/numtext/
go test -run '^$' -fuzz 'FuzzParseFloat' -fuzztime 5s ./internal/numtext/

echo "== race (parallel runtime + dataflow scheduler, single graphs and fleets + pipeline drivers + ingest plane + artifact store + storage plane + streaming chunk plane + the FFT table cache) =="
go test -race ./internal/parallel/... ./internal/dataflow/... ./internal/pipeline/... ./internal/ingest/... ./internal/artifact/... ./internal/storage/... ./internal/stream/... ./internal/dsp/...

echo "== chaos (seeded fault-injection soak, artifact cache enabled) =="
go test -race -count=1 -run 'Chaos|Partial|Quarantine|RetryOp|StageMove' ./internal/pipeline/... ./internal/faults/...

echo "== cache ablation smoke (cached vs uncached outputs byte-identical, hits observed) =="
go test -count=1 -run 'ArtifactCache' ./internal/pipeline/...

echo "== cache persistence (warm restarts skip unchanged records; corrupted entries degrade to misses; -cache-fsck over linked blobs) =="
go test -count=1 -run 'WarmRestart|PersistentCache|ActionCache|CacheFsck' ./internal/pipeline/... ./internal/artifact/... ./cmd/smproc/

echo "== crash/resume (kill -9 matrix, journal replay, cache scrub) =="
go test -count=1 -run 'CrashResume|CrashKills|CrashUnarmed|Resume|Journal|Scrub' ./internal/pipeline/... ./internal/faults/... ./internal/artifact/...

echo "== fleet saturation smoke (shared-pool scheduler criteria on a tiny queue) =="
go run ./cmd/benchtables -fleet -smoke -check

echo "== ingest check (format registry round-trips; byte-identity, QC gate, rotation across the pipeline) =="
go test -count=1 ./internal/ingest/
go test -count=1 -run 'TestFormats|TestFormatOverride|TestQCGate|TestAzimuth|TestCorruptInput' ./internal/pipeline/

echo "== streaming memory-ablation smoke (flat StorageBytesPeak, byte-identical outputs) =="
go run ./cmd/benchtables -streambench -smoke -check

echo "CI gate passed."
