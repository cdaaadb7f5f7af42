#!/usr/bin/env bash
# ci.sh — the full verification gate for this repo.
#
#   ./ci.sh          format check, vet, build, shuffled race tests, wire + checkpoint flake pass,
#                    portable-kernel tests, cross builds, bench module, doc gate,
#                    real-process smoke, wire + matmul fuzz smokes, short kernel and sweep benches,
#                    allocs_op and bytes_op of the kernel bench held to the committed BENCH_kernels.json
#
# The quick kernel and sweep benches write their BENCH_*.json to temp
# dirs — they exist to prove the harnesses run (and that no record's
# allocation count rose), not to refresh the
# committed numbers. When the kernels or the sweep scheduler change,
# regenerate the tracked files with a full measurement:
#   go run ./cmd/calibre perf kernels -out .
#   go run ./cmd/calibre perf sweep -out .
# What a federation round costs, and where, is bench/'s question:
#   go run -C bench . --workload sim-calibre
# (see README.md "Benchmark harness").
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...
# One command line: cmd/ holds exactly one main package.
if [ "$(ls cmd)" != "calibre" ]; then
    echo "cmd/ must contain exactly one directory, calibre; found:" >&2
    ls cmd >&2
    exit 1
fi

# -shuffle=on: no test may depend on state a neighbour left behind (the
# kernel oracle tests resize the shared worker pool and restore it).
echo "== go test -race -shuffle=on =="
go test -race -shuffle=on ./...

# The wire tests are the timing-sensitive ones (real sockets, deadlines,
# stragglers, evictions), and the checkpoint path is concurrent (the save
# runs behind the next round): three more shuffled passes over them, and
# over the codec under them, so a flake shows up here and not in a later PR.
echo "== flake pass: go test -count=3 -shuffle=on (flnet, param, fl, store) =="
go test -count=3 -shuffle=on ./internal/flnet/ ./internal/param/ ./internal/fl/ ./internal/store/

# The row primitives of internal/tensor have an AVX2 assembly body and a
# portable Go body that must agree bit for bit. On an AVX2 host the default
# build tests both (the tests flip the package's switch); the purego tag
# builds the package without the assembly, so the portable path is also held
# to the oracle as the only path, nn's bit-identity tests run on it, kmeans'
# and core's distance loops are held to their naive references on it, ssl's
# and core's borrowed-vs-heap step identities hold on it, and the
# golden ledger of internal/baselines (every registry method's final bits)
# and model's pinned loops must come out the same from the portable kernels.
echo "== go test -tags purego (portable kernels) =="
go test -tags purego ./internal/tensor/... ./internal/nn/... ./internal/kmeans/... ./internal/ssl/... ./internal/core/... ./internal/model/... ./internal/baselines/...

# The fallback must compile where the assembly does not exist. (go vet's
# asmdecl check, in the vet step above, holds the amd64 assembly to its Go
# declarations.)
echo "== cross builds without the assembly =="
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/
GOARCH=386 go build ./internal/tensor/

# bench/ is a module of its own (replace calibre => ../) that root
# build/vet/test do not see; it imports calibre/internal/..., so an
# internal API change that stops the frozen benchmark compiling would
# otherwise stay invisible until the benchmark pipeline runs it.
echo "== bench module (vet + test) =="
(cd bench && go vet ./... && go test ./...)

echo "== examples (build + vet) =="
go build ./examples/...
go vet ./examples/...

echo "== doc gate =="
go run ./tools/docgate

# What only real processes can show: one hostile, traced, metrics-serving
# sweep through run -> SIGINT -> resume on binaries built once, plus the
# allocation ceiling of the training hot path.
echo "== smoke =="
go run ./tools/smoke

# A few seconds of fuzzing over what a fresh connection may receive
# (preamble, gob headers, vector frames), from the committed corpus in
# internal/flnet/testdata/fuzz: a smoke run, not a campaign.
echo "== wire decoder fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzWireDecoder$' -fuzztime 5s ./internal/flnet/

# The same for the matmul kernels against the naive loops: shapes, sparsity
# and operands the committed corpus in internal/tensor/testdata/fuzz does
# not hold, on both implementations of the row primitives.
echo "== matmul oracle fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzMatMulMatchesNaive$' -fuzztime 5s ./internal/tensor/

# The harness re-reads the file it wrote and exits non-zero if it does not
# parse, does not record kernel_impl, or a serial-path shape reports
# allocs_op > 0.
# Both harnesses run from one build of the binary.
bin="$(mktemp -d)/calibre"
go build -o "$bin" ./cmd/calibre

# An allocation count repeats from run to run, so unlike the timings it is
# held to the committed file: the gate fails if allocs_op rose on any record
# the quick run shares with BENCH_kernels.json (a training step or a round
# that lost its arena, its tape scratch or its recycled tensor headers), or
# bytes_op on the step and round records that carry it (a model-sized vector
# copied or rebuilt per call is one object and many bytes);
# wall-time fields and environment mismatches only warn.
echo "== kernel bench (quick) + allocs_op and bytes_op gates =="
kernels="$(mktemp -d)"
"$bin" perf kernels -quick -out "$kernels"
"$bin" diff bench -fail allocs_op BENCH_kernels.json "$kernels/BENCH_kernels.json" >/dev/null
"$bin" diff bench -fail bytes_op BENCH_kernels.json "$kernels/BENCH_kernels.json" >/dev/null

echo "== sweep bench (quick) =="
"$bin" perf sweep -quick -out "$(mktemp -d)"

echo "CI gate passed."
