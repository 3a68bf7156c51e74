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
# The speculative window's schedule is timing-dependent, and nets and path storage persist across the attempts of a worker's session, so these tests run three more times under the race detector.
go test -race -count=3 -run 'TestWorkersDeterminism$|TestSpeculationWindowSpans|TestSpeculationAllocBudget|TestCancellationLatencyMidRun|TestPathArenaContract|TestFailedRoutesLeaveSessionReusable' . ./internal/route ./internal/himap
# The configuration encoder against encoding/json on ten seconds of new fuzz inputs (the committed seeds ran above).
go test -run '^$' -fuzz FuzzConfigAppendJSON -fuzztime 10s ./internal/arch
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
# Serving soak on a 2-replica cluster: zero 5xx and a nonzero cache hit count.
go run ./cmd/himapload -cluster 2 -duration 3s -concurrency 4 -require-hits >/dev/null
# Exact backend: a tiny instance closes with a proved-minimal certificate.
exact_out=$(go run ./cmd/himap -mapper exact -kernel MVT -rows 4 -cols 4 -block 2 -exact-budget 30s)
echo "$exact_out" | grep -q "proved minimal"
# The two line counts ROADMAP item 14 tracks, in every CI log.
scripts/loc.sh
