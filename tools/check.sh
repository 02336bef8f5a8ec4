#!/usr/bin/env bash
# Build the tier-1 test suite under a sanitizer and run it.
#
# The robustness suites (tests/test_jpeg_corrupt.cc in particular) claim
# "no out-of-bounds access on corrupt input"; that claim is only
# machine-checked when the decoder actually runs instrumented. This
# script is that check: a separate build tree configured with
# -DTB_SANITIZE=..., then the full ctest run.
#
# Usage: tools/check.sh [--tsan] [build-dir] [ctest-args...]
#   Default mode is ASan+UBSan in build-asan. With --tsan the suite is
#   built under ThreadSanitizer instead (build-tsan) — the data-race
#   check for the threaded prep executor (docs/CONCURRENCY.md).
#   build-dir defaults to build-asan / build-tsan (kept apart from the
#   plain build).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

sanitize="address+undefined"
default_dir="$repo_root/build-asan"
if [[ "${1:-}" == "--tsan" ]]; then
    sanitize="thread"
    default_dir="$repo_root/build-tsan"
    shift
fi

build_dir="${1:-$default_dir}"
shift || true

# Fail hard on any sanitizer report instead of continuing.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

cmake -B "$build_dir" -S "$repo_root" \
    -DTB_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"
