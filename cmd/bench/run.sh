#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash cmd/bench/run.sh --workload chip-jittered --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ at
# the repository root: the Go build cache, the binary, and the inputs and
# outputs of a run in progress.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"

(cd "$root/cmd/bench" && go build -o "$out/bench" .) >&2
cd "$root"
exec "$out/bench" "$@"
