#!/bin/sh
# The sizes every change reports before and after (ROADMAP's discipline):
# Go line counts (product code outside bench/ and testdata/, test code
# outside bench/), DESIGN.md lines and CHANGES.md words. The non-test
# count includes the Go under scripts/ (the gate's own tooling), printed
# beside it so tooling growth is told apart from product growth.
cd "$(dirname "$0")/.."
prod=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)
scripts=$(find ./scripts -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)
tests=$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)
design=$(wc -l <DESIGN.md)
changes=$(wc -w <CHANGES.md)
echo "non-test Go $prod (scripts/ $scripts) / test Go $tests / DESIGN.md lines $design / CHANGES.md words $changes"
