#!/bin/sh
# Repository health gate: formatting, vet, build, the project analyzer
# suite (cmd/himaplint), the full test suite under the race detector
# (the lock check; it also carries the alloc-ceiling tests — router hot
# path, replicate+validate, and the allocation count and bytes of one
# cold GEMM 64x64 compile, TestScaleCompileAllocBudget — the 32x32 and
# 64x64 scale/... rows of goldenMappings, the router's map-Dijkstra
# oracle, TestRouteSinkMatchesMapDijkstra, and the gates on its A* bound:
# the lookahead table checked against mrrg.Succ — consistent along every
# edge, exact on an empty session, one process-wide table grown under
# four goroutines, TestLookahead* — and TestLongHoldVisitBudget, the
# closed-node budget of a value held in place; and the gates on the
# served body — the append encoders held to encoding/json's own rendering
# for every goldenMappings row, checkRenderings, and by hand-built cases,
# TestAppendJSONMatchesEncodingJSON; TestEncodeResponseAllocCeiling, the
# bytes one response may allocate; TestWriteBodySetsContentLength), a
# bounded run of FuzzConfigAppendJSON (the same differential check on
# configurations assembled from fuzz bytes), the
# bench/ module's vet, tests and a one-second paper_small run for its
# correctness gate, and the himapd / himapload / exact smokes (the himapd
# smoke also requires Content-Length == len(body) and that the compacted
# himap.SaveConfig file equals the served "config" member). CI runs
# exactly this script and nothing beside it, so every gate runs once;
# run it before sending changes. bench/run.sh -compare is deliberately
# not gated here: its time and memory rows are noise-bound on a shared CI
# host, and the four metrics that must repeat exactly (II, utilization,
# MOPS/mW, bitstream size) are already pinned by the golden mapping
# tables the test suite checks. Compare by hand, on a quiet machine, when
# a PR claims a gain. The profile behind a large-fabric claim is one
# command: go test -run '^$' -bench ScaleCompile -benchtime 3x
# -cpuprofile cpu.out . (then go tool pprof -top himap.test cpu.out);
# behind a negotiated-congestion (router-bound) claim it is the same
# command with -bench CongestedCompile -benchtime 5x; behind a serving
# (serve_mix) claim, go test -run '^$' -bench ServeMiss -benchtime 5x
# -cpuprofile cpu.out ./internal/serve; behind a flat-backend
# (flat_backends) claim, go test -run '^$' -bench FlatBackends -benchtime
# 5x -cpuprofile cpu.out . (sub-benchmarks exact and conventional; this
# script runs both once so the command cannot rot). The race suite also
# carries the exact mapper's gates: TestScreenNeverRefutesRoutable (the
# leaf screen against the router on six fabric variants),
# TestExactTrajectoryPinned, TestAnnealDenseMatchesMap and
# TestFlatExactAllocBudget.
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
# Analyzer suite, internal/analysis included: fails on any finding and
# on stale //lint:ignore directives (dead suppressions are findings of
# the pseudo-analyzer "suppress"), so fixed debt cannot linger as silent
# waivers.
go run ./cmd/himaplint ./...
# Shuffled (the seed is printed on failure): a fixed order hides coupling
# between tests through process-wide state such as the shared memo.
go test -race -shuffle=on ./...
# The configuration encoder against encoding/json on generated inputs:
# the committed seeds ran above; this spends ten seconds on new ones.
go test -run '^$' -fuzz FuzzConfigAppendJSON -fuzztime 10s ./internal/arch
# The flat_backends profile command, one iteration of each backend.
go test -run '^$' -bench FlatBackends -benchtime 1x .
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
