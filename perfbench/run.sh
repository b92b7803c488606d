#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's source and runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload recluster --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every run's scratch state stay under
# .bench_build/ at the repository root. Outside a full checkout (no go.mod
# one level up) the build fails and the script exits nonzero.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$bench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
