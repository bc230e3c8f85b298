#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root;
# every argument is passed to the benchmark (see bench/README.md). The Go
# build cache, the binaries, the fixtures and the server logs all stay under
# .bench_build in the current directory.
set -euo pipefail
work="$PWD/.bench_build"
mkdir -p "$work"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOFLAGS=
# Telemetry off, so the go command starts no background child process.
mkdir -p "$work/config/go/telemetry"
echo off > "$work/config/go/telemetry/mode"
go -C bench build -o "$work/bench" .
exec "$work/bench" "$@"
