#!/bin/sh
# Go line counts as ROADMAP reports them: product code outside bench/ and
# testdata/, and test code outside bench/.
cd "$(dirname "$0")/.."
prod=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)
tests=$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)
echo "non-test Go $prod / test Go $tests"
