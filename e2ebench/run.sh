#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing all
# arguments through. Run from the repository root:
#
#   bash e2ebench/run.sh --workload pagerank-mapred --seed 1 --seconds 20 --trace 0
#
# The build's cache, temporaries and binary stay in the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), so the benchmark writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"

export GOCACHE=$build/go-cache GOTMPDIR=$build/go-tmp GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
