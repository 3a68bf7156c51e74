#!/bin/sh
# Repository health gate. CI runs exactly this script and nothing beside
# it; run it before sending changes. The gate list is the script: each
# command carries its reason. bench/run.sh -compare is not gated here —
# its time and memory rows are noise-bound on a shared host, and the four
# metrics that must repeat exactly are pinned by the golden tables the
# test suite checks. Profile commands: .claude/skills/verify/SKILL.md.
set -eux
cd "$(dirname "$0")/.."
# The tree is fully formatted; any printed name fails.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
# Project analyzers; a finding or a stale //lint:ignore fails.
go run ./cmd/himaplint ./...
# Every test under the race detector, shuffled: a fixed order hides coupling through process-wide state (the shared memo, the lookahead table).
go test -race -shuffle=on ./...
# The speculative window's schedule is timing-dependent, a panic in one of its attempts must reach the caller whichever goroutine runs it, and nets, path storage and a live region's stale occupancy persist across the attempts that re-target a session from the window's free list, so these tests run three more times under the race detector.
go test -race -count=3 -run 'TestWorkersDeterminism$|TestSpeculationWindowSpans|TestAttemptPanicPropagates|TestSpeculationAllocBudget|TestCancellationLatencyMidRun|TestPathArenaContract|TestSessionOwnsNets|TestFailedRoutesLeaveSessionReusable|TestLiveRegion|TestRouteWorkFlat|TestRoutedAttemptDropsSession' . ./internal/route ./internal/himap
# The coverage ledger, two sections (~70 s): per function of the ten mapping packages, the statements no test runs; then, by name, the functions no product command runs (cmd/ binaries, examples and the himapd smoke built with -cover and run at GOMAXPROCS=1 over the script's command list, ~8 s more on 2 cores with a warm build cache). Code that no test reaches, or that only tests reach, cannot come back unnoticed, and code a change stops running shows as a new row.
go run ./scripts/coverage_core | diff - results/coverage_core.txt
# The configuration encoder against encoding/json on ten seconds of new fuzz inputs (the committed seeds ran above).
go test -run '^$' -fuzz FuzzConfigAppendJSON -fuzztime 10s ./internal/arch
# The store's entry decoder reads bytes from disk that another process may have written or truncated: ten seconds of new fuzz inputs.
go test -run '^$' -fuzz FuzzStoreDecode -fuzztime 10s ./internal/store
# The flat_backends, congested and scale64 profile commands, and the per-stage ones (MAP(), replicate + validate, isdg-build), once each, so they cannot rot.
go test -run '^$' -bench FlatBackends -benchtime 1x .
go test -run '^$' -bench CongestedCompile -benchtime 1x .
go test -run '^$' -bench ScaleCompile -benchtime 1x .
go test -run '^$' -bench 'MapIDFG|ReplicateValidate' -benchtime 1x ./internal/himap
go test -run '^$' -bench BuildISDG -benchtime 1x ./internal/kernel
# Tables I and II are deterministic: the committed results file is what the code prints now.
go run ./cmd/experiments -table1 -table2 | diff - results/tables.txt
# The design-space sweep is deterministic at every -workers (~1.5 s): its committed ranking is what the code prints now.
go run ./cmd/experiments -explore -explore-size 8 | diff - results/explore8.txt
# The 64x64 envelope is deterministic (~3 s; compile times go to the stderr progress lines): U, unique iterations, II_B and MOPS of the eight kernels.
go run ./cmd/experiments -envelope | diff - results/envelope64.txt
# The quality gap against the exact solver is deterministic (~1 s; the exact search stops at its leaf cap, not its context deadline): HiMap and SA II beside exact's proved minimum.
go run ./cmd/experiments -gap | diff - results/gap4.txt
# Figure 7 at 4x4 is deterministic (~7 s; every baseline point closes well inside its 20 s context deadline): BHC and HiMap U, MOPS and MOPS/mW of the eight kernels.
go run ./cmd/experiments -fig7 -sizes 4 | diff - results/fig7_4x4.txt
# The HiMap flow knows nothing of the other backends: only the root package dispatches to them.
if go list -deps ./internal/himap | grep -E '^himap/internal/(baseline|exact)$'; then
	echo "internal/himap imports a flat backend" >&2
	exit 1
fi
# bench/ is its own module (replace himap => ../): nothing above compiles it.
(cd bench && go vet ./... && go test ./...)
# The harness end to end: exits 1 unless its correctness gate holds and no compile failed.
bash bench/run.sh --workload paper_small --seed 1 --seconds 1 --trace 0 >/dev/null
# himapd smoke: served == direct bytes (miss, then hit), Content-Length, schema_version 1 -> 400, metrics, SIGTERM.
go run ./scripts/himapd_smoke
# Serving soak on one self-hosted replica: zero 5xx and a nonzero cache hit count.
go run ./cmd/himapload -duration 3s -concurrency 4 -require-hits >/dev/null
# Exact backend: a tiny instance closes with a proved-minimal certificate.
exact_out=$(go run ./cmd/himap -mapper exact -kernel MVT -rows 4 -cols 4 -block 2 -exact-budget 30s)
echo "$exact_out" | grep -q "proved minimal"
# Conventional backend: a tiny instance maps, and a memory kernel on a fabric with no memory PE is refused by the resource bound before any SA move.
conv_out=$(go run ./cmd/himap -mapper conventional -kernel MVT -rows 4 -cols 4 -block 2)
echo "$conv_out" | grep -q "(baseline)"
if conv_err=$(go run ./cmd/himap -mapper conventional -kernel MVT -rows 4 -cols 4 -block 2 -mem-pes none 2>&1); then
	echo "the conventional mapper mapped MVT on a fabric with no memory PE" >&2
	exit 1
fi
echo "$conv_err" | grep -q "memory-port demand infeasible"
# The live region at a size no bench workload runs: GEMM 128x128 routes with no guard trip (a route span reporting fallbacks above 0 fails).
gemm128=$(go run ./cmd/himap -kernel GEMM -rows 128 -cols 128 -workers 1 -trace 2>&1)
echo "$gemm128" | grep 'trace: route' | grep -q 'fallbacks=0 '
if echo "$gemm128" | grep 'trace: route' | grep -q 'fallbacks=[1-9]'; then
	echo "a GEMM 128x128 route span fell back to the whole array" >&2
	exit 1
fi
# The CLI's four fabric class flags reach the fabric it compiles for: the summary names every class.
fabric_out=$(go run ./cmd/himap -kernel ADI -rows 8 -cols 8 -fabric torus -mem-pes all -bandwidth double -cost high-perf)
echo "$fabric_out" | grep -q "ADI on 8x8/torus/mem-all/bw-double/cost-high-perf:"
# The sizes every change reports before and after (ROADMAP's discipline: Go lines, DESIGN.md lines, CHANGES.md words), in every CI log.
scripts/loc.sh
