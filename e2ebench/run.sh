#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload read_uniform --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory. A checkout without the repository's sources
# fails the build, so the script exits non-zero without printing a
# result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "e2ebench: no go.mod in $root; run from the repository root" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The go command keeps its cache, its GOPATH, its temporary files and,
# under the user config directory, its telemetry counters; all of them,
# and the benchmark's own temporary files, go under $out.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
unset GOFLAGS
go build -C "$root/e2ebench" -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
