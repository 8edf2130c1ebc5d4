#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Everything the build and the
# run write stays under the build directory inside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -work "$out/work" "$@"
