#!/usr/bin/env bash
# Builds the perfbench command from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload join-fine --seed 1 --seconds 30 --trace 0
#
# Every build and tool artifact stays under .bench_build/ in the current
# directory: the Go build cache, the module cache, the binary and the trace
# files. Outside a full checkout (no engine sources next to perfbench/) the
# build fails and the script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/home"

export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-buildvcs=false

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit"
export PERFBENCH_COMMAND="bash perfbench/run.sh $*"
export PERFBENCH_OUT="$build"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
