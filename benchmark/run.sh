#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build and the run write — Go's build cache,
# the binary, DataDirs, records — stays under .bench_build/ in the
# checkout, which .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	cd "$root/benchmark"
	go build -o "$build/benchmark" .
) >&2
cd "$root"
exec "$build/benchmark" "$@"
