#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload point_shallow --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, module cache and the binary under .bench_build/, traces under
# benchmark/out/. The benchmark is a module of its own (benchmark/go.mod)
# that takes the serving stack from the repository around it; in a directory
# without that repository the build, and with it this script, fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# The commit is stamped into the binary where the checkout is a repository;
# where asking git fails, build without the stamp rather than not at all.
go build -C "$here" -o "$build/benchmark" . 2>"$build/build.log" ||
	go build -C "$here" -buildvcs=false -o "$build/benchmark" .

cd "$root"
exec "$build/benchmark" "$@"
