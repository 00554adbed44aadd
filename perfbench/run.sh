#!/usr/bin/env bash
# Builds diskserve (from cmd/diskserve) and the benchmark driver, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-binary --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
[ -f "$root/go.mod" ] && [ -d "$root/cmd/diskserve" ] || {
	echo "perfbench: run from the repository root (go.mod and cmd/diskserve not found)" >&2
	exit 2
}
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Rebuild only when a source file changed since the last build.
src=$(find "$root/go.mod" "$root/cmd" "$root/internal" "$root/perfbench" -type f \( -name '*.go' -o -name 'go.mod' \) -print0 |
	sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
if [ ! -x "$out/bin/diskserve" ] || [ ! -x "$out/bin/perfbench" ] || [ "$(cat "$out/bin/source" 2>/dev/null)" != "$src" ]; then
	go build -o "$out/bin/diskserve" ./cmd/diskserve >&2
	(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
	echo "$src" >"$out/bin/source"
fi
export PERFBENCH_SOURCE="tree-sha256:$src"
exec "$out/bin/perfbench" -diskserve "$out/bin/diskserve" -workdir "$out/run" "$@"
