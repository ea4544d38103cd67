#!/usr/bin/env bash
# Builds lsbench and the lsd daemon from this checkout into .bench_build/
# (Go build cache included, so nothing is written outside the checkout)
# and runs lsbench with the given arguments:
#
#   bash bench/run.sh                                   every workload, both passes
#   bash bench/run.sh -only mesh_busy                   one workload
#   bash bench/run.sh compare A.json B.json             gate B against A
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/lsbench" .)
(cd "$root" && go build -o "$out/lsd" ./cmd/lsd)
exec "$out/lsbench" -dir "$here" -lsd "$out/lsd" "$@"
