#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, from the root of the repository, for example:
#
#   bash e2ebench/run.sh --workload q7-bimodal --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced run's spans go to
# .bench_build/ under the root; nothing is written anywhere else.
set -euo pipefail
# Fall back to Go's standard install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/e2ebench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS= go build -o "$out/e2ebench" .
)
cd "$root"
exec "$out/e2ebench" "$@"
