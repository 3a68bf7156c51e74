#!/bin/sh
# Repository health gate: formatting, vet, build, the project analyzer
# suite (cmd/himaplint: baseline ratchet + self-host), the full test
# suite under the race detector, the bench/ module's vet, tests and a
# one-second paper_small run for its correctness gate, and the himapd /
# himapload / exact / alloc-ceiling smokes. CI runs exactly this script
# and nothing beside it, so every gate runs once; run it before sending
# changes. bench/run.sh -compare is deliberately not gated here: its time
# and memory rows are noise-bound on a shared CI host, and the four
# metrics that must repeat exactly (II, utilization, MOPS/mW, bitstream
# size) are already pinned by the golden mapping tables the test suite
# checks. Compare by hand, on a quiet machine, when a PR claims a gain.
set -eux
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
# Analyzer suite under the debt ratchet: fails on findings not recorded
# in the baseline AND on stale baseline entries or stale //lint:ignore
# directives (dead suppressions are findings of the pseudo-analyzer
# "suppress"), so fixed debt cannot linger as silent waivers.
go run ./cmd/himaplint -baseline himaplint.baseline.json ./...
# Self-host: the analyzer package must satisfy its own suite.
go run ./cmd/himaplint ./internal/analysis
# Shuffled (the seed is printed on failure): a fixed order hides coupling
# between tests through process-wide state such as the shared memo.
go test -race -shuffle=on ./...
# bench/ is its own module (replace himap => ../), so nothing above
# compiles it: vet and test it here, or a root-module API change can
# silently break the benchmark harness.
(cd bench && go vet ./... && go test ./...)
# The harness end to end on the common-case workload: it exits 1 unless
# its correctness gate holds (simulator vs golden executor, II >= the
# static lower bound, one bitstream digest across every compile) and no
# compile failed.
bash bench/run.sh --workload paper_small --seed 1 --seconds 1 --trace 0 >/dev/null
# himapd end-to-end smoke: ephemeral port, served-vs-direct byte diff
# (miss, then hit), a schema_version 1 pin answering 400, metrics,
# graceful SIGTERM shutdown.
go run ./scripts/himapd_smoke
# Serving soak smoke: a short seeded load run against a self-hosted
# 2-replica sharded cluster must finish with zero 5xx responses and a
# nonzero cache hit count (-require-hits); the JSON report on stdout is
# discarded, the one-line summary on stderr stays in the log.
go run ./cmd/himapload -cluster 2 -duration 3s -concurrency 4 -require-hits >/dev/null
# Exact-backend smoke: a tiny instance must close with a proved-minimal
# certificate within a short budget.
exact_out=$(go run ./cmd/himap -mapper exact -kernel MVT -rows 4 -cols 4 -block 2 -exact-budget 30s)
echo "$exact_out" | grep -q "proved minimal"
# Alloc smokes, self-enforced by testing.AllocsPerRun inside the
# benchmarks: BenchmarkRouteSinkHotPath (bench_test.go) fails if the
# router's steady-state search exceeds its 29 allocs/op floor,
# BenchmarkReplicateValidate (internal/himap) if stamping + validation of
# ADI 32x32 exceeds 165 allocs/run — i.e. starts allocating per cluster.
go test -run '^$' -bench 'BenchmarkRouteSinkHotPath|BenchmarkReplicateValidate' -benchtime 10x . ./internal/himap
