#!/usr/bin/env bash
# check.sh is the single verification entrypoint for the repo: gofmt,
# build, vet, the repo-native smlint analyzers, the full test suite under the
# race detector and again as 32-bit binaries, the fuzz smokes (the value
# codec on both decode paths, the segment-file reader, the row store's
# table file, the text parsers, write-ahead-log replay, the PAR kernel,
# the histogram kernel, the similarity kernel, the similarity scan's
# bound and the similarity drain; the four hostile-file ones again as
# 32-bit binaries), a check that no kernel package compiles a fused
# multiply-add for arm64, and the kernels' benchmark smokes, then the
# benchmark module's own vet and tests. CI
# runs exactly this script; run it locally before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l . (every Go file, testdata and bench/ included, is gofmt-clean)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt: these files are not formatted:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# The similarity, PAR, histogram and fixed-point decode kernels have an
# amd64 assembly path and a Go path for every other platform; vet the
# non-amd64 file sets so they keep compiling.
echo "== GOARCH=arm64 go vet ./internal/stats ./internal/similarity ./internal/par ./internal/colcodec (non-amd64 kernel files)"
GOARCH=arm64 go vet ./internal/stats ./internal/similarity ./internal/par ./internal/colcodec

# The kernels' packages round every product on its own, as amd64 does,
# so that their results are the same bits on every platform: arm64's
# compiler fuses x*y+z into one instruction unless the product is
# written float64(x*y). Fail on any fused multiply-add it emits there.
echo "== GOARCH=arm64 go build -gcflags=-S (no fused multiply-add in stats, par, threeline, similarity, colcodec)"
asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/stats ./internal/par ./internal/threeline \
	./internal/similarity ./internal/colcodec 2>&1)
fused=$(grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' <<<"$asm" || true)
if [ -n "$fused" ]; then
	echo "$fused"
	echo "check.sh: fused multiply-add on arm64; write the product float64(x*y)"
	exit 1
fi

echo "== go run ./cmd/smlint ./..."
go run ./cmd/smlint ./...

# The execution layer and the engines under it are the concurrency
# hot spots (a goroutine per partition, each extracting and computing, the
# partition cursors' shared state — refcounted indexes, the row store's
# concurrent buffer pool under its shared table latch, shared cluster
# extraction jobs — and block scheduling); surface a race there as its
# own failure before the full suite runs. The pin and refcount balance
# of that shared state is held by tests in this step (rowstore's
# TestPinsBalance, filestore's TestIndexPartCloseResetClose), not by
# smlint, whose analyzers are all single syntactic passes.
echo "== go test -race ./internal/exec/... ./internal/engine/... (partition loop + partition cursors)"
go test -race ./internal/exec/... ./internal/engine/...

# Chaos conformance: every engine cursor under injected faults and
# mid-extract cancellation, raced, and the warm step (exec.Warm: a
# goroutine per partition writing into one shared buffer) on every
# engine, cancelled mid-drain included. These tests also run inside the
# full suite below, but a containment, race or leak regression should
# fail here under its own name rather than somewhere inside
# "go test ./...".
echo "== go test -race -run 'Chaos|Cancel|Fault|Warm' ./... (fault containment + cancellation + warm drain)"
go test -race -run 'Chaos|Cancel|Fault|Warm' ./...

# Recovery conformance: the deterministic crash-injection sweep (kill
# ingestion at every counted disk op, reopen, demand bit-exact acked
# prefixes), torn-tail truncation, the wal unit suite, append
# atomicity (a batch that breaks the append contract leaves no trace
# in a snapshot, and commits once without its bad reading) and the row
# store's first touch after a reopen (TestRecoveryFirstTouchDescends:
# one index descent per household, not a scan of its range), raced,
# and every Checkpoint test: explicit Checkpoint racing Append,
# Snapshot and open partitions is the engines' only concurrent
# checkpoint (with RunCheckpointChaos), so a fold that loses a reading
# or races a reader fails here too. Same rationale as the chaos step:
# a durability, atomicity or recovery-cost regression fails under its
# own name.
echo "== go test -race -run 'Recovery|Crash|WAL|AppendAtomicity|Checkpoint' ./... (crash recovery + wal + append atomicity + checkpoint)"
go test -race -run 'Recovery|Crash|WAL|AppendAtomicity|Checkpoint' ./...

echo "== go test -race ./..."
go test -race ./...

# The suite again as 32-bit binaries, which run natively on amd64. An
# int is 32 bits wide there, so a stored u32 that becomes an int before
# it is checked can turn negative; and the similarity kernel builds from
# its Go lanes alone, so the golden hashes and the pruned scan's
# all-pairs oracle tests pin that build against the vector one.
echo "== GOARCH=386 go test ./... (32-bit ints, the generic similarity kernel)"
GOARCH=386 go test ./...

# The value codec beyond the committed corpus: encode and decode must
# round-trip every bit pattern (fixed, XOR, dict, RLE), and the decoder
# must refuse or decode arbitrary bytes within bounds, its fixed-point
# unpacker agreeing with the byte-at-a-time reader it replaced on the
# vector path this CPU selects and on the Go lanes. go test
# accepts one -fuzz target per invocation, hence two.
echo "== go test -fuzz FuzzValuesRoundTrip -fuzztime 10s ./internal/colcodec (codec round trip)"
go test -run '^$' -fuzz 'FuzzValuesRoundTrip' -fuzztime 10s ./internal/colcodec
echo "== go test -fuzz FuzzDecodeValues -fuzztime 10s ./internal/colcodec (hostile decode)"
go test -run '^$' -fuzz 'FuzzDecodeValues' -fuzztime 10s ./internal/colcodec

# The column store's segment-file reader on arbitrary bytes: a header
# field must be checked against the file before it sizes anything, and
# a file that opens must read back through the pager (no cache and a
# one-block cache) and through the block summaries of the engine's two
# partition cursors, and a fail-fast histogram over it at two workers
# must return results or the corrupt-segment error: never a panic, not
# even one a partition recovers into an error. Format v4 accounts for
# every byte (segments tile the file, a consumer's value lengths sum to
# its payload area, a payload decodes to exactly its block's rows) and
# refuses v3 files; the seeds hold a block of each value mode and a NaN
# block, a v3 file and the hostile-header table. Each input is written
# to a file, so minimizing one is slow; capping it keeps the smoke
# fuzzing.
echo "== go test -fuzz FuzzSegmentFile -fuzztime 10s ./internal/engine/colstore (hostile segment files)"
go test -run '^$' -fuzz 'FuzzSegmentFile' -fuzztime 10s -fuzzminimizetime 1s ./internal/engine/colstore

# The row store's table file with arbitrary bytes written over it at
# any offset, in both layouts: Open, a histogram run, a snapshot drain,
# a live Append of one hour (which checks the page of each household's
# last tuple before placing its new tuple there, and the heap tail's
# header before chaining a page to it) and a second snapshot drain
# return data or an error, never a panic, not even one a worker
# recovers into an error. Each input is written to a file, so
# minimizing is capped as above.
echo "== go test -fuzz FuzzRowstoreFile -fuzztime 10s ./internal/engine/rowstore (hostile table files)"
go test -run '^$' -fuzz 'FuzzRowstoreFile' -fuzztime 10s -fuzzminimizetime 1s ./internal/engine/rowstore

# The text parsers on arbitrary bytes, written as a reading-per-line and
# as a series-per-line file: both scanners and both readers return data
# or an error, never a panic; every series assembled from readings spans
# the temperature year; and the float fast path keeps strconv's bits.
echo "== go test -fuzz FuzzReadingRows -fuzztime 10s ./internal/meterdata (hostile text rows)"
go test -run '^$' -fuzz 'FuzzReadingRows' -fuzztime 10s -fuzzminimizetime 1s ./internal/meterdata

# The text writers append each line through strconv into the writer's
# buffer; the fmt writers they replaced are the oracle. Any household,
# hour and value, written from any offset of a small buffer, must come
# out as fmt spells it and read back through ScanReadings.
echo "== go test -fuzz FuzzWriteLineMatchesFmt -fuzztime 10s ./internal/meterdata (text lines against fmt)"
go test -run '^$' -fuzz 'FuzzWriteLineMatchesFmt' -fuzztime 10s -fuzzminimizetime 1s ./internal/meterdata

# Write-ahead-log replay over arbitrary shard files, with the magic kept
# or replaced: Open fails only for I/O, only whole CRC-clean records
# come back, and a second open over the truncated file replays the same
# batches.
echo "== go test -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal (hostile log files)"
go test -run '^$' -fuzz 'FuzzWALReplay' -fuzztime 10s -fuzzminimizetime 1s ./internal/wal

# The four hostile-file targets again as 32-bit binaries, where a stored
# u32 or u64 that becomes an int before it is compared can turn
# negative (a row tuple's hour once indexed a row at -16777214). The
# toolchain instruments coverage for fuzzing on amd64 and arm64 only, so
# at 386 these smokes mutate the seeds without coverage guidance: they
# catch what random mutation of the seeds reaches, not what guided
# search would.
for target in 'FuzzSegmentFile ./internal/engine/colstore' 'FuzzRowstoreFile ./internal/engine/rowstore' \
	'FuzzReadingRows ./internal/meterdata' 'FuzzWALReplay ./internal/wal'; do
	set -- $target
	echo "== GOARCH=386 go test -fuzz $1 -fuzztime 10s $2 (32-bit, unguided)"
	GOARCH=386 go test -run '^$' -fuzz "$1" -fuzztime 10s -fuzzminimizetime 1s "$2"
done

# The planned PAR kernel against the textbook one it replaced: a short
# coverage-guided pass beyond the property test's draws (bit for bit, no
# panic), each input fitted on both paths, the vector one this CPU
# selects and the Go lanes; then one iteration of each PAR benchmark so
# that they keep compiling and running.
echo "== go test -fuzz FuzzPlannedPARMatchesNaive -fuzztime 10s ./internal/par (planned PAR == naive, both paths)"
go test -run '^$' -fuzz 'FuzzPlannedPARMatchesNaive' -fuzztime 10s ./internal/par
echo "== go test -bench PAR -benchtime 1x ./internal/par"
go test -run xxx -bench 'PAR' -benchtime 1x ./internal/par

# The histogram kernel against the Add loop it must equal count for
# count, on both of AddAll's paths (the vector one this CPU selects and
# the Go lanes), over fuzzed ranges, bucket counts and readings; then
# one iteration of the histogram's and the fixed-point decoder's
# benchmarks, so that they keep compiling and running.
echo "== go test -fuzz FuzzAddAllMatchesAddLoop -fuzztime 10s ./internal/stats (AddAll == Add loop, both paths)"
go test -run '^$' -fuzz 'FuzzAddAllMatchesAddLoop' -fuzztime 10s ./internal/stats
echo "== go test -bench 'AddAll|DecodeFixed' -benchtime 1x ./internal/stats ./internal/colcodec"
go test -run xxx -bench 'AddAll|DecodeFixed' -benchtime 1x ./internal/stats ./internal/colcodec

# The similarity kernel's vector path against the Go lanes it must equal
# bit for bit, on shapes, lengths and values beyond the table tests (and
# short buffers, which must panic as the Go lanes do); then one iteration
# of its benchmarks, so that they keep compiling and running.
echo "== go test -fuzz FuzzCosineTileMatchesLanes -fuzztime 10s ./internal/stats (vector kernel == Go lanes)"
go test -run '^$' -fuzz 'FuzzCosineTileMatchesLanes' -fuzztime 10s ./internal/stats
echo "== go test -bench 'CosineTile|SimilarityBlocked' -benchtime 1x ./internal/stats ./internal/similarity"
go test -run xxx -bench 'CosineTile|SimilarityBlocked' -benchtime 1x ./internal/stats ./internal/similarity

# The pruned similarity scan's bound on arbitrary rows: mixed signs and
# cancellation, magnitudes from 1e-310 to 1e300, NaN, ±Inf, zero, and
# lengths that leave a tail shorter than a segment. Every pair's exact
# score must be at most its bound plus the margin, or one of its rows
# must be one the scan never skips.
echo "== go test -fuzz FuzzBoundHoldsOrNeverSkips -fuzztime 10s ./internal/similarity (score <= bound + margin)"
go test -run '^$' -fuzz 'FuzzBoundHoldsOrNeverSkips' -fuzztime 10s ./internal/similarity

# The similarity drain against the reference: drawn consumer counts, row
# lengths, partition cuts (or interleaved partitions), hints that are
# wrong or missing, cursors that do and do not take their rows, NaN,
# flat and failing consumers, under every fail policy; the matches, the
# failures and the error texts must be the reference's bit for bit.
echo "== go test -fuzz FuzzSimilarityDrainMatchesReference -fuzztime 10s ./internal/exec (similarity drain == reference)"
go test -run '^$' -fuzz 'FuzzSimilarityDrainMatchesReference' -fuzztime 10s ./internal/exec

# bench/ is a module of its own, so none of the ./... above reaches it.
# Its tests run both workloads end to end at -scale tiny and hold every
# task's results to core.RunReference bit for bit (TestGateCatchesOneBit
# proves the gate can fail), so a kernel change that breaks the
# benchmark's correctness gate fails here and not first in the pipeline.
echo "== go vet -C bench ./... && go test -C bench ./... (benchmark module + its correctness gate)"
go vet -C bench ./...
go test -C bench ./...

echo "check.sh: all green"
