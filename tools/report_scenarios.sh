#!/usr/bin/env bash
# Write the tb_report outputs of a fixed scenario list into OUT_DIR and
# check that they are well formed.
#
# usage: tools/report_scenarios.sh TB_REPORT OUT_DIR
#
# Each scenario NAME leaves NAME.json, NAME.csv and NAME.txt (the
# printed summary); the --trace scenarios also leave NAME.trace.json.
# Every JSON file must parse with `python3 -m json.tool`, and every CSV
# file must start with the "section,key,value" header and hold exactly
# three fields in every row (Python's csv module, so quoted fields
# count as one). Nothing in OUT_DIR depends on where it was written, so
# two builds can be compared with `diff -r`: a change that must leave
# the reports byte-identical runs this script on both and diffs.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 TB_REPORT OUT_DIR" >&2
    exit 2
fi
tb_report=$1
out=$2
mkdir -p "$out"
log=$(mktemp)
trap 'rm -f "$log"' EXIT

# run NAME ARGS...: one tb_report invocation; its stderr (which names
# the output paths) is shown only when it fails.
run() {
    local name=$1
    shift
    if ! "$tb_report" "$@" --json "$out/$name.json" \
            --csv "$out/$name.csv" > "$out/$name.txt" 2> "$log"; then
        echo "report_scenarios: $name failed: $tb_report $*" >&2
        cat "$log" >&2
        exit 1
    fi
}

for preset in baseline acc acc-gpu p2p p2p-gen4 no-pool trainbox; do
    run "$preset-256" --preset "$preset" --accs 256
done

b32=(--preset baseline --accs 32)
run baseline-32-no-metrics "${b32[@]}" --no-metrics
run baseline-32-elastic "${b32[@]}" --elastic
run baseline-32-ingest "${b32[@]}" --ingest
run baseline-32-corrupt "${b32[@]}" --corrupt 0.001
run baseline-32-corrupt-checks "${b32[@]}" --corrupt 0.001 --checks
run baseline-32-all "${b32[@]}" --elastic --ingest --corrupt 0.01 --checks
run trainbox-8-prep-smoke --preset trainbox --accs 8 --prep-smoke 64

for policy in first_fit packed pool_aware; do
    run "fleet-$policy" --fleet --policy "$policy"
done
run fleet-chaos --fleet-chaos

run trace-trainbox-32 --preset trainbox --accs 32 \
    --trace "$out/trace-trainbox-32.trace.json"
run trace-baseline-16 --preset baseline --accs 16 \
    --trace "$out/trace-baseline-16.trace.json"

for f in "$out"/*.json; do
    python3 -m json.tool "$f" > /dev/null ||
        { echo "report_scenarios: $f is not valid JSON" >&2; exit 1; }
done

python3 - "$out" <<'EOF'
import csv
import pathlib
import sys

bad = 0
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.csv")):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["section", "key", "value"]:
        print(f"report_scenarios: {path}: missing header", file=sys.stderr)
        bad += 1
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            print(f"report_scenarios: {path}: row {n} has {len(row)} "
                  f"fields: {row}", file=sys.stderr)
            bad += 1
sys.exit(1 if bad else 0)
EOF

echo "report_scenarios: $(ls "$out"/*.json | wc -l) JSON and" \
     "$(ls "$out"/*.csv | wc -l) CSV files in $out are well formed"
