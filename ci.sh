#!/usr/bin/env bash
# ci.sh — the full verification gate for this repo.
#
#   ./ci.sh          format check, vet, build, shuffled race tests, wire + checkpoint flake pass,
#                    row-primitive tiers (avx512, avx2, generic: which ran, which this host skipped),
#                    portable-kernel tests, cross builds, bench module, doc gate,
#                    real-process smoke, wire + matmul + compaction + sweep + group-sum + distance-tile + exp + sgd-step + fedavg-sink +
#                    pair-ntxent + prototype-ce + spec-grammar + availability-trace + aggregator + adversary + alert-rules + sweep-grid +
#                    checkpoint-decoder + checkpoint-round-trip + trace-reader fuzz smokes, short kernel and sweep benches,
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
# One codec on the wire: internal/flnet's fixed header. gob (reflective,
# self-describing, sized by what the peer declares) must not come back to
# it unnoticed; `calibre ckpt export -format gob` keeps its gob, a file format.
flnet_deps=$(go list -deps ./internal/flnet)
if grep -qx 'encoding/gob' <<<"$flnet_deps"; then
    echo "internal/flnet depends on encoding/gob" >&2
    exit 1
fi
# The XOR-delta codec (param.Delta, param.DiffInto) has no caller left but
# bench/'s probes, and Store.SetIncremental is a no-op only bench/run.go
# still calls; both go when bench/ does. Nothing else may start calling
# them meanwhile.
delta_users=$(grep -rnE --include='*.go' --exclude='*_test.go' '\.SetIncremental\(|param\.(Delta|DiffInto)\b' . |
    grep -vE '^\./(bench|internal/param)/|^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$delta_users" ]; then
    echo "SetIncremental or the param delta codec has a new caller outside bench/:" >&2
    echo "$delta_users" >&2
    exit 1
fi
# One method vocabulary: what a method name builds is decided in
# internal/baselines (Resolve), so every tool takes the same names. A Calibre
# method assembled anywhere else would be a name only its own tool knows.
calibre_assemblers=$(grep -rnE --include='*.go' --exclude='*_test.go' 'core\.(New|NewPFLSSL|DefaultConfig)\(' . |
    grep -vE '^\./(bench|internal/core|internal/baselines)/|^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$calibre_assemblers" ]; then
    echo "a Calibre method is assembled outside internal/baselines (build it by name: baselines.Build):" >&2
    echo "$calibre_assemblers" >&2
    exit 1
fi
# One event stream: the round core only emits trace events, and
# internal/health/fold.go is the one place they become obs.RoundSamples,
# for the live planes and `calibre doctor replay` alike. A sample built
# anywhere else would be a second account of a round that no replay
# reproduces; the deleted hand-inverted replay must not come back either.
sample_builders=$( { grep -rnE --include='*.go' --exclude='*_test.go' 'obs\.RoundSample\{' . |
    grep -vE '^\./(bench/|internal/health/fold\.go:)|^[^:]+:[0-9]+:[[:space:]]*//';
    grep -rnw --include='*.go' 'ReplaySamples' .; } || true)
if [ -n "$sample_builders" ]; then
    echo "an obs.RoundSample is built outside internal/health/fold.go (fold the round's trace events: health.Fold):" >&2
    echo "$sample_builders" >&2
    exit 1
fi
# Client state is data: a method keeps its clients' cross-round state in its
# fl.ClientTable, which checkpoints carry. A per-client cache or a map of
# per-client vectors in a trainer is state no snapshot sees, and a resumed
# run would diverge from an uninterrupted one.
client_state=$(grep -rnE --include='*.go' --exclude='*_test.go' 'ClientStates\[|CarriesLocalState|map\[int\](\[\]float64|param\.Vector)' \
    internal/baselines internal/core internal/ssl | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$client_state" ]; then
    echo "per-client state outside the method's client table (keep it in fl.ClientTable rows):" >&2
    echo "$client_state" >&2
    exit 1
fi
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
# nn's process-wide pools (tapes; param's vectors behind its gradients and
# velocities) are state one test leaves the next, and so are the client
# values baselines' stateless methods borrow from param's pool: they get the
# same passes.
echo "== flake pass: go test -count=3 -shuffle=on (flnet, param, fl, store, nn, baselines) =="
go test -count=3 -shuffle=on ./internal/flnet/ ./internal/param/ ./internal/fl/ ./internal/store/ ./internal/nn/ ./internal/baselines/

# The row primitives of internal/tensor have up to three tiers that must
# agree bit for bit: AVX-512 bodies (axpyRows and the 8×8 dot tile), AVX2
# assembly bodies and portable Go bodies. The default build tests every tier
# the host can run (eachImpl flips the package's switches, and every fuzz
# smoke below runs through it); this step logs KernelImpl() and which legs
# ran, so a log from a host without AVX-512 or AVX2 shows the skip. The purego tag
# builds the package without the assembly, so the portable path is also held
# to the oracle as the only path, nn's bit-identity tests run on it, kmeans'
# and core's distance loops are held to their naive references on it, data's
# augmentation (whose style sweep is a tensor primitive) is held to its scalar
# sweep on it, ssl's
# and core's borrowed-vs-heap step identities hold on it, and the
# golden ledger of internal/baselines (every registry method's final bits)
# and model's pinned loops must come out the same from the portable kernels.
echo "== row-primitive tiers =="
go test -count=1 -v -run '^TestRowPrimitiveTiers$' ./internal/tensor/ | grep -E 'KernelImpl|leg skipped'
go test -tags purego -count=1 -v -run '^TestRowPrimitiveTiers$' ./internal/tensor/ | grep -E 'KernelImpl|leg skipped'
echo "== go test -tags purego (portable kernels) =="
go test -tags purego ./internal/tensor/... ./internal/nn/... ./internal/kmeans/... ./internal/data/... ./internal/ssl/... ./internal/core/... ./internal/model/... ./internal/baselines/...

# The fallback must compile where the assembly does not exist. (go vet's
# asmdecl check, in the vet step above, holds the amd64 assembly to its Go
# declarations.)
echo "== cross builds without the assembly =="
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/
GOARCH=386 go build ./...
# param.Bytes views a vector's memory as the little-endian bytes the wire and
# the checkpoint files carry, which it is only on a little-endian
# architecture: a big-endian build must stop, naming why.
if s390x=$(GOARCH=s390x go build ./internal/param 2>&1); then
    echo "GOARCH=s390x go build ./internal/param succeeded; it must be refused" >&2
    exit 1
elif ! grep -q 'paramBytesRequiresLittleEndianArchitecture' <<<"$s390x"; then
    echo "GOARCH=s390x go build ./internal/param failed, but not on the little-endian requirement:" >&2
    echo "$s390x" >&2
    exit 1
fi

# bench/ is a module of its own (replace calibre => ../) that root
# build/vet/test do not see; it imports calibre/internal/..., so an
# internal API change that stops the frozen benchmark compiling would
# otherwise stay invisible until the benchmark pipeline runs it.
echo "== bench module (vet + test) =="
(cd bench && go vet ./... && go test ./...)

echo "== examples (build + vet) =="
go build ./examples/...
go vet ./examples/...
# The examples are the calibre facade's only in-repo users: one that
# imported an internal package to name a type would hide a missing alias.
internal_imports=$(go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./examples/... | grep 'calibre/internal/' || true)
if [ -n "$internal_imports" ]; then
    echo "an example imports calibre/internal/... (re-export what it needs from the calibre package):" >&2
    echo "$internal_imports" >&2
    exit 1
fi

echo "== doc gate =="
go run ./tools/docgate

# What only real processes can show: one hostile, traced, metrics-serving
# sweep through run -> SIGINT -> resume on binaries built once, plus the
# allocation ceiling of the training hot path.
echo "== smoke =="
go run ./tools/smoke

# A few seconds of fuzzing over what a fresh connection may receive
# (preamble, headers, vector frames), from the committed corpus in
# internal/flnet/testdata/fuzz: a smoke run, not a campaign.
echo "== wire decoder fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzWireDecoder$' -fuzztime 5s ./internal/flnet/

# The same for the matmul kernels against the naive loops: shapes, sparsity
# and operands the committed corpus in internal/tensor/testdata/fuzz does
# not hold, on both implementations of the row primitives.
echo "== matmul oracle fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzMatMulMatchesNaive$' -fuzztime 5s ./internal/tensor/

# And for the row kernel's left-pack against the loop it replaced: lengths,
# start offsets, keep ratios, special values and offset steps beyond the
# corpus, on both implementations.
echo "== compaction fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzCompactRowMatchesScalar$' -fuzztime 5s ./internal/tensor/

# And for the row kernel's sweep against one scalar loop per row: widths
# around the AVX-512 sweep's 64-element strips, row counts up to a block,
# misaligned operands, both forms (adding to o, and writing o from +0) and
# special values beyond the corpus, on every tier.
echo "== sweep fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzAxpyRowsMatchesScalar$' -fuzztime 5s ./internal/tensor/

# And for the group sums (tensor.AddRowsAt: centroids, prototypes, the
# silhouette's per-cluster distance sums) against one scalar sweep per
# picked row: widths, index counts across the blockK chunks, repeated
# indices, both forms and special values beyond the corpus.
echo "== group-sum fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzAddRowsAtMatchesScalar$' -fuzztime 5s ./internal/tensor/

# And for the k-means distance tile against the scalar SqDist loop: row
# lengths, offsets, repeated rows and special values beyond the corpus.
echo "== distance tile fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzSqDistTileMatchesSqDist$' -fuzztime 5s ./internal/tensor/

# And for the vector exp against math.Exp itself: row lengths, offsets,
# shifts and inputs in every lane class beyond the corpus, bit for bit.
echo "== exp oracle fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzExpShiftMatchesMathExp$' -fuzztime 5s ./internal/tensor/

# And for the optimizer's step primitive against SGD's scalar loop: lengths,
# offsets, both forms and a fresh velocity's first step, coefficients and
# special values beyond the corpus.
echo "== sgd step oracle fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzSGDStepMatchesScalarLoop$' -fuzztime 5s ./internal/tensor/

# And for the fused softmax losses against the chains of nodes they
# replaced (NTXent and PairNTXent; PrototypeCE): batch sizes, widths,
# temperatures and special values beyond the corpus in
# internal/nn/testdata/fuzz, loss and every gradient bit for bit (any NaN
# for a NaN), a Calibre step's graph among them.
echo "== pair-ntxent oracle fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzPairNTXentMatchesUnfused$' -fuzztime 5s ./internal/nn/
echo "== prototype-ce oracle fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzPrototypeCEMatchesUnfused$' -fuzztime 5s ./internal/nn/

# And for FedAvg's streaming sink against one serial sweep: 1–5 updates,
# lengths across param.Shard's boundaries, −0, NaN payloads and the other
# special values, bit for bit (any NaN for a NaN).
echo "== fedavg sink fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzWeightedAverageSinkMatchesBatch$' -fuzztime 5s ./internal/fl/

# And for the spec grammar every text knob is read by: whatever
# spec.Split accepts must render to a canonical form that splits back to it.
echo "== spec grammar fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzSplit$' -fuzztime 5s ./internal/spec/

# And for the four grammars built on it — availability traces (flat(p)
# among them), aggregators, adversaries and alert rules: whatever parses
# must validate and render to a canonical spec that parses back to it.
echo "== availability trace fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzParseTrace$' -fuzztime 5s ./internal/fl/
echo "== aggregator spec fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzParseAggregator$' -fuzztime 5s ./internal/fl/
echo "== adversary spec fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzParseAdversary$' -fuzztime 5s ./internal/fl/
echo "== alert rules fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzParseRules$' -fuzztime 5s ./internal/health/

# And for the sweep grid decoder: whatever grid parses must expand within
# the cell cap to unique keys, each cell one fl's simulator check accepts.
echo "== sweep grid fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzParseGrid$' -fuzztime 5s ./internal/sweep/

# And for the two file formats a run leaves behind and later reads back: a
# checkpoint file (store.Decode) and a trace file (trace.ReadAll), torn or
# corrupted ones included; and a checkpoint written from any snapshot the
# fuzzer describes must decode back to it, bit for bit.
echo "== checkpoint decoder fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s ./internal/store/
echo "== checkpoint round-trip fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzSnapshotRoundTrip$' -fuzztime 5s ./internal/store/
echo "== trace reader fuzz (5s) =="
go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 5s ./internal/trace/

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
