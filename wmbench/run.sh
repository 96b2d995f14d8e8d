#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash wmbench/run.sh --workload crawl --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files all stay
# under .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
(
	cd wmbench
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= \
		go build -o "$build/wmbench" .
)
exec "$build/wmbench" -work "$build/work" "$@"
