#!/usr/bin/env bash
# Builds loadbench from this checkout's sources and runs it, passing
# every argument through. Run it from the checkout root:
#
#   bash loadbench/run.sh --workload cold-check --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and the Go tool's own state stay
# under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off
(cd loadbench && go build -o "$build/loadbench" .) >&2
exec "$build/loadbench" "$@"
