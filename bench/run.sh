#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the benchmark from source into
# .bench_build/ at the root of the checkout and runs it there with the
# arguments given:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, telemetry counters)
# is kept inside .bench_build/ too, so a run touches nothing outside the
# checkout. The build needs the whole repository: bench/ is a module of
# its own that replaces module "repro" with the parent directory, and in
# a directory holding only bench/ it fails, which is the intended answer
# there.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/home"
HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" \
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local \
	go build -C bench -buildvcs=false -o "$out/bench" .
exec "$out/bench" "$@"
