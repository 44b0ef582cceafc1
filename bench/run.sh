#!/usr/bin/env bash
# Builds the evorec server and the benchmark from this checkout, then runs
# the benchmark with the given flags. Run it from anywhere inside an evorec
# checkout:
#
#   bash bench/run.sh --workload warm-read --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh                      # every workload, one fresh child each
#   bash bench/run.sh -runs 5              # medians and quartiles of 5 fresh sets
#
# Everything the build and the runs write stays under .bench_build/ (and the
# span files under bench/out/), both ignored by git.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/evorec" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench: $root is not an evorec checkout (need go.mod, cmd/evorec and bench/go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

cd "$root/bench"
go build -o "$build/bin/evorec" evorec/cmd/evorec
go build -o "$build/bin/evorec-bench" .
cd "$root"
exec "$build/bin/evorec-bench" -evorec "$build/bin/evorec" -work "$build" "$@"
