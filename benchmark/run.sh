#!/usr/bin/env bash
# What BENCHMARK.json runs: build the benchmark from source into
# .bench_build at the root of the checkout, then run it with the driver's
# arguments. The Go build cache and temporary files stay inside the
# checkout too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/autobahn-bench" .)
exec "$out/autobahn-bench" "$@"
