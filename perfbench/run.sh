#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with every argument passed through. Run from the repository root:
#
#	bash perfbench/run.sh --workload wire-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

if [ -d "$root/.git" ] && commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	export PERFBENCH_COMMIT="$commit"
fi

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
