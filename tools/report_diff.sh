#!/usr/bin/env bash
# Check that the working tree writes the same tb_report outputs as a
# base revision.
#
# usage: tools/report_diff.sh BASE_REV
#
# Run from the repository root. Builds tb_report from BASE_REV in a
# temporary directory (exported with `git archive`, so the repository
# gains no worktree and nothing is left behind) and from the working
# tree in build/ (configured first if it does not exist). Runs the
# working tree's tools/report_scenarios.sh with each binary, then
# `diff -r`s the two output directories: it prints every difference
# and exits non-zero if there is one. A refactor that must leave every
# report byte-identical passes with the parent as BASE_REV, e.g.
#
#   tools/report_diff.sh HEAD~1
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
jobs=$(nproc)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# build SRC_DIR BUILD_DIR: configure BUILD_DIR unless it already is,
# then build tb_report there; show the build log's tail if it fails.
build() {
    echo "report_diff: building tb_report in $2" >&2
    { [ -f "$2/CMakeCache.txt" ] || cmake -S "$1" -B "$2"; } \
        > "$tmp/build.log" 2>&1 &&
        cmake --build "$2" -j "$jobs" --target tb_report \
            >> "$tmp/build.log" 2>&1 || {
        echo "report_diff: building tb_report in $2 failed:" >&2
        tail -n 30 "$tmp/build.log" >&2
        exit 1
    }
}

mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
build "$tmp/src" "$tmp/build"
build . build

tools/report_scenarios.sh "$tmp/build/tools/tb_report" "$tmp/base"
tools/report_scenarios.sh build/tools/tb_report "$tmp/head"
if diff -r "$tmp/base" "$tmp/head"; then
    echo "report_diff: $(ls "$tmp/head" | wc -l) files identical to" \
         "${base:0:12}" >&2
else
    echo "report_diff: outputs differ from ${base:0:12}" >&2
    exit 1
fi
