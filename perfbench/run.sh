#!/usr/bin/env bash
# Builds vlpserved and the perfbench binary from the checkout it is run
# in, then runs one workload against that vlpserved:
#
#   bash perfbench/run.sh --workload city-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artefact stays
# under .bench_build/ in that root; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/vlpserved" ./cmd/vlpserved
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -server "$out/bin/vlpserved" "$@"
