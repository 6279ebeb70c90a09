#!/usr/bin/env bash
# check.sh is the single verification entrypoint for the repo: build,
# vet, the repo-native smlint analyzers, the full test suite under the
# race detector, the fuzz smokes (the value codec, the segment-file
# reader, the row store's table file, the text parsers, write-ahead-log
# replay, the PAR kernel and the similarity kernel) and the kernels'
# benchmark smokes, then the benchmark module's own vet and tests. CI
# runs exactly this script; run it locally before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The similarity kernel has an amd64 assembly path and a Go path for
# every other platform; vet the non-amd64 file set so it keeps
# compiling.
echo "== GOARCH=arm64 go vet ./internal/stats ./internal/similarity (non-amd64 kernel files)"
GOARCH=arm64 go vet ./internal/stats ./internal/similarity

echo "== go run ./cmd/smlint ./..."
go run ./cmd/smlint ./...

# The execution layer and the engines under it are the concurrency
# hot spots (the pipeline's extract/compute goroutine fan-out, the
# partition cursors' shared state — refcounted indexes, the row store's
# concurrent buffer pool under its shared table latch, shared cluster
# extraction jobs — and block scheduling); surface a race there as its
# own failure before the full suite runs. The pin and refcount balance
# of that shared state is held by tests in this step (rowstore's
# TestPinsBalance, filestore's TestIndexPartCloseResetClose), not by
# smlint, whose analyzers are all single syntactic passes.
echo "== go test -race ./internal/exec/... ./internal/engine/... (one-worker loop, pipeline + partition cursors)"
go test -race ./internal/exec/... ./internal/engine/...

# Chaos conformance: every engine cursor under injected faults and
# mid-extract cancellation, raced. These tests also run inside the full
# suite below, but a containment or leak regression should fail here
# under its own name rather than somewhere inside "go test ./...".
echo "== go test -race -run 'Chaos|Cancel|Fault' ./... (fault containment + cancellation)"
go test -race -run 'Chaos|Cancel|Fault' ./...

# Recovery conformance: the deterministic crash-injection sweep (kill
# ingestion at every counted disk op, reopen, demand bit-exact acked
# prefixes), torn-tail truncation and the wal unit suite, raced. Same
# rationale as the chaos step: a durability regression fails under its
# own name.
echo "== go test -race -run 'Recovery|Crash|WAL' ./... (crash recovery + wal)"
go test -race -run 'Recovery|Crash|WAL' ./...

echo "== go test -race ./..."
go test -race ./...

# The value codec beyond the committed corpus: encode and decode must
# round-trip every bit pattern (fixed, XOR, dict, RLE), and the decoder
# must refuse or decode arbitrary bytes within bounds, its fixed-point
# unpacker agreeing with the byte-at-a-time reader it replaced. go test
# accepts one -fuzz target per invocation, hence two.
echo "== go test -fuzz FuzzValuesRoundTrip -fuzztime 10s ./internal/colcodec (codec round trip)"
go test -run '^$' -fuzz 'FuzzValuesRoundTrip' -fuzztime 10s ./internal/colcodec
echo "== go test -fuzz FuzzDecodeValues -fuzztime 10s ./internal/colcodec (hostile decode)"
go test -run '^$' -fuzz 'FuzzDecodeValues' -fuzztime 10s ./internal/colcodec

# The column store's segment-file reader on arbitrary bytes: a header
# field must be checked against the file before it sizes anything, and
# a file that opens must read back through the pager (no cache and a
# one-block cache) and the summary cursor without a panic, every
# refusal the corrupt-segment error. Each input is written to a file, so
# minimizing one is slow; capping it keeps the smoke fuzzing.
echo "== go test -fuzz FuzzSegmentFile -fuzztime 10s ./internal/engine/colstore (hostile segment files)"
go test -run '^$' -fuzz 'FuzzSegmentFile' -fuzztime 10s -fuzzminimizetime 1s ./internal/engine/colstore

# The row store's table file with arbitrary bytes written over it at
# any offset, in both layouts: Open and a histogram run return data or
# an error, never a panic, not even one a worker recovers into an error.
# Each input is written to a file, so minimizing is capped as above.
echo "== go test -fuzz FuzzRowstoreFile -fuzztime 10s ./internal/engine/rowstore (hostile table files)"
go test -run '^$' -fuzz 'FuzzRowstoreFile' -fuzztime 10s -fuzzminimizetime 1s ./internal/engine/rowstore

# The text parsers on arbitrary bytes, written as a reading-per-line and
# as a series-per-line file: both scanners and both readers return data
# or an error, never a panic; every series assembled from readings spans
# the temperature year; and the float fast path keeps strconv's bits.
echo "== go test -fuzz FuzzReadingRows -fuzztime 10s ./internal/meterdata (hostile text rows)"
go test -run '^$' -fuzz 'FuzzReadingRows' -fuzztime 10s -fuzzminimizetime 1s ./internal/meterdata

# Write-ahead-log replay over arbitrary shard files, with the magic kept
# or replaced: Open fails only for I/O, only whole CRC-clean records
# come back, and a second open over the truncated file replays the same
# batches.
echo "== go test -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal (hostile log files)"
go test -run '^$' -fuzz 'FuzzWALReplay' -fuzztime 10s -fuzzminimizetime 1s ./internal/wal

# The planned PAR kernel against the textbook one it replaced: a short
# coverage-guided pass beyond the property test's draws (bit for bit, no
# panic), and one iteration of each PAR benchmark so that they keep
# compiling and running.
echo "== go test -fuzz FuzzPlannedPARMatchesNaive -fuzztime 10s ./internal/par (planned PAR == naive)"
go test -run '^$' -fuzz 'FuzzPlannedPARMatchesNaive' -fuzztime 10s ./internal/par
echo "== go test -bench PAR -benchtime 1x ./internal/par"
go test -run xxx -bench 'PAR' -benchtime 1x ./internal/par

# The similarity kernel's vector path against the Go lanes it must equal
# bit for bit, on shapes, lengths and values beyond the table tests (and
# short buffers, which must panic as the Go lanes do); then one iteration
# of its benchmarks, so that they keep compiling and running.
echo "== go test -fuzz FuzzCosineTileMatchesLanes -fuzztime 10s ./internal/stats (vector kernel == Go lanes)"
go test -run '^$' -fuzz 'FuzzCosineTileMatchesLanes' -fuzztime 10s ./internal/stats
echo "== go test -bench 'CosineTile|SimilarityBlocked' -benchtime 1x ./internal/stats ./internal/similarity"
go test -run xxx -bench 'CosineTile|SimilarityBlocked' -benchtime 1x ./internal/stats ./internal/similarity

# bench/ is a module of its own, so none of the ./... above reaches it.
# Its tests run both workloads end to end at -scale tiny and hold every
# task's results to core.RunReference bit for bit (TestGateCatchesOneBit
# proves the gate can fail), so a kernel change that breaks the
# benchmark's correctness gate fails here and not first in the pipeline.
echo "== go vet -C bench ./... && go test -C bench ./... (benchmark module + its correctness gate)"
go vet -C bench ./...
go test -C bench ./...

echo "check.sh: all green"
