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
# The configuration encoder against encoding/json on ten seconds of new fuzz inputs (the committed seeds ran above).
go test -run '^$' -fuzz FuzzConfigAppendJSON -fuzztime 10s ./internal/arch
# The flat_backends profile command, once per backend, so it cannot rot.
go test -run '^$' -bench FlatBackends -benchtime 1x .
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
# The two line counts ROADMAP item 3 tracks, in every CI log.
scripts/loc.sh
