#!/usr/bin/env bash
# Build the benchmark (a package of its own, path dependencies on the
# product crates) and run it from the root of the checkout.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
#   benchmark/run.sh [--seed N] [--traced] [--quick] [--verify-eager]  all four workloads
#   benchmark/run.sh compare A.json B.json                            apply BENCHMARK.json's bounds
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export BENCH_GIT_REV=${BENCH_GIT_REV:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}
export BENCH_RUSTC=${BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}

# Fix glibc malloc's thresholds. Left to adjust themselves they settle,
# at random per process, in one of two states: decoded chunks served
# from the heap, or mmap'ed and page-faulted in on every load. The
# second is a quarter slower on cold_scan and lasts for the whole run.
export MALLOC_MMAP_THRESHOLD_=${MALLOC_MMAP_THRESHOLD_:-33554432}
export MALLOC_TRIM_THRESHOLD_=${MALLOC_TRIM_THRESHOLD_:-1073741824}

bin=$target/release/benchmark
case " $* " in
  *" --workload "*) exec "$bin" run "$@" ;;
esac
case ${1:-} in
  compare | manifest) exec "$bin" "$@" ;;
  *) exec "$bin" suite "$@" ;;
esac
