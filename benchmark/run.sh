#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root, e.g.
#
#   bash benchmark/run.sh --workload paper-regen --seed 1 --seconds 10 --trace 0
#
# Only the Go toolchain is needed. Everything the build writes stays in
# .bench_build/ inside the checkout; nothing is downloaded.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f benchmark/go.mod || ! -f BENCHMARK.json ]]; then
	echo "benchmark: $(pwd) is not a lowcontend checkout root (need go.mod, internal/, benchmark/ and BENCHMARK.json)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "benchmark: the Go toolchain (go) is not on PATH" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out"
if ! (cd benchmark && env GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false \
	GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	go build -o "$out/lowcontend-bench" .); then
	echo "benchmark: building the benchmark failed" >&2
	exit 2
fi
exec "$out/lowcontend-bench" "$@"
