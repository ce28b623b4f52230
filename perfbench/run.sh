#!/usr/bin/env bash
# Builds the benchmark program and the hscserve binary from the checkout
# it is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 0 --seconds 40 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# server caches and trace files all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/hscserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an hscsim checkout" >&2
	exit 2
fi
root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/hscserve" ./cmd/hscserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -hscserve "$build/bin/hscserve" -out "$build/perfbench" \
	-digests perfbench/digests.json "$@"
