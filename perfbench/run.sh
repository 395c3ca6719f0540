#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload rmat-p256 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact (the binary, the
# Go build cache and the toolchain's config) stays under .bench_build in
# that root, or under $CARGO_TARGET_DIR when it is set.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 2
fi
exec "$out/perfbench" --workdir "$out" "$@"
