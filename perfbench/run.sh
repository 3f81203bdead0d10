#!/usr/bin/env bash
# Builds the perfbench runner from source and runs it with the given
# flags (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload open_stream --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

# The build fails, and nothing runs, when the module the runner
# measures is not next to the perfbench directory.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
