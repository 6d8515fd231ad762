#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-binary --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, and
# the result and span files the benchmark writes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOTELEMETRY=off

# The module replaces doconsider with the checkout it sits in, so the
# build fails, and nothing is printed on stdout, when the repository's
# sources are not there.
(cd perfbench && go build -o "$build/perfbench/perfbench" .) >&2

if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
  PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-}"
exec "$build/perfbench/perfbench" "$@"
