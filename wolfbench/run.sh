#!/usr/bin/env bash
# Builds wolfbench from the checkout it is run in, then runs it with the
# given arguments. Run from the repository root:
#
#	bash wolfbench/run.sh --workload batch_unique --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, corpora and span files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd wolfbench && go build -o "$out/wolfbench" .)
exec "$out/wolfbench" "$@"
