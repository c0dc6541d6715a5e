#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go tool
# writes (build cache, temporary files) stays inside the checkout.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS="-mod=mod -buildvcs=false" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/themis-bench" .
if [ -z "${THEMIS_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	THEMIS_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export THEMIS_COMMIT
fi
exec "$build/themis-bench" "$@"
