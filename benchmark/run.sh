#!/usr/bin/env bash
# Entry point of BENCHMARK.json: build the benchmark inside the checkout
# (compiler cache included, so nothing is written outside it) and run it with
# the driver's arguments. Without the repository's sources around it there is
# nothing to measure, and it exits non-zero before printing a result.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
	echo "benchmark/run.sh: run from the root of a blackswan checkout" >&2
	exit 2
fi
build="${PWD}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" XDG_CONFIG_HOME="${build}/config" GOTOOLCHAIN=local
go build -o "${build}/benchmark" ./benchmark
exec "${build}/benchmark" "$@"
