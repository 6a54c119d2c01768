#!/usr/bin/env bash
# Builds stsserved (from this checkout), the traced server and the load
# generator into .bench_build/, then runs the benchmark. Arguments go to
# the load generator, e.g.
#
#   bash e2ebench/run.sh --workload topk_resident --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export TMPDIR=$out/tmp GOTMPDIR=$out/tmp
go build -o "$out/bin/stsserved" ./cmd/stsserved
go -C e2ebench build -o "$out/bin/" ./cmd/e2ebench ./cmd/stsserved-traced
commit=$(git rev-parse --short HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
	commit="unknown (stsserved sha256 $(sha256sum "$out/bin/stsserved" | cut -c1-12))"
fi
exec "$out/bin/e2ebench" -server "$out/bin/stsserved" -traced "$out/bin/stsserved-traced" \
	-work "$out/runs" -commit "$commit" "$@"
