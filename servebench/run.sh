#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload sync --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --workload sync --runs 10 --seconds 10
#
# Everything the build and the run write (Go build cache, binary, store
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$src" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
