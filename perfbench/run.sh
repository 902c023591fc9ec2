#!/usr/bin/env bash
# Builds vfpgad and the benchmark driver from this checkout, then runs
# the driver with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write (Go build cache and temporary
# files, binaries, address files, spans) stays under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTMPDIR="${build}/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS="" GOWORK=off
(cd "${root}" && go build -o "${build}/vfpgad" ./cmd/vfpgad)
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
cd "${root}"
# The driver runs at a raised priority (see startDaemon); without the
# permission nice warns and runs it at the default one.
exec nice -n -10 "${build}/perfbench" --daemon "${build}/vfpgad" --out "${build}" "$@"
