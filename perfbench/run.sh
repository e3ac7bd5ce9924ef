#!/usr/bin/env bash
# Builds the perfbench program and the mpcgraph and mpcgraphd binaries of
# the checkout it is run from, then hands every argument to perfbench:
#
#   bash perfbench/run.sh --workload file-solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binaries, the
# per-run temp dirs and the traced run's span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mpcgraphd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/mpcgraphd here)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gomodcache" "$out/config"

# A clean, offline, checkout-local toolchain environment.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/mpcgraph" ./cmd/mpcgraph
go build -o "$out/bin/mpcgraphd" ./cmd/mpcgraphd
go -C perfbench build -o "$out/bin/perfbench" .

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
