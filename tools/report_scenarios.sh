#!/usr/bin/env bash
# Write the tb_report outputs of a fixed scenario list, and the output
# of every figure, table and sweep bench, into OUT_DIR, and check that
# the reports are well formed.
#
# usage: tools/report_scenarios.sh TB_REPORT OUT_DIR
#        tools/report_scenarios.sh --benches
#
# Each scenario NAME leaves NAME.json, NAME.csv and NAME.txt (the
# printed summary); the --trace scenarios also leave NAME.trace.json.
# The session JSON alone is also written for the whole grid of every
# preset x Table I model x {8, 32, 64, 256} accelerators (196 runs,
# grid-PRESET-MODEL-ACCS.json), so a solver change can be diffed over
# every scale the paper's figures use.
# Every JSON file must parse with Python's json module, and every CSV
# file must start with the "section,key,value" header and hold exactly
# three fields in every row (Python's csv module, so quoted fields
# count as one).
# Each bench B of the list below, found in the bench/ directory beside
# TB_REPORT's tools/ directory of a build tree, leaves its printed
# tables in bench/B.txt and its --csv output in bench/B.csv (the
# timing-based micro_prep_scaling is left out); --benches prints the
# list. Nothing in OUT_DIR depends on where it was written, so two
# builds can be compared with `diff -r`: a change that must leave the
# reports and every figure number byte-identical runs this script on
# both and diffs.
set -euo pipefail

benches=(fig02b_sync_scaling fig03_bottleneck_shift fig05_augmentation
         fig08_baseline_scalability fig09_latency_breakdown
         fig10_host_resources fig11_resource_decomposition
         fig19_throughput fig20_batch_sweep fig21_scalability
         fig22_host_utilization table1_workloads table2_3_fpga_resources
         ablation_design_space fault_sweep checkpoint_sweep
         integrity_sweep elastic_sweep ingest_sweep fleet_sweep
         fleet_fault_sweep)

if [ $# -eq 1 ] && [ "$1" = --benches ]; then
    echo "${benches[@]}"
    exit 0
fi
if [ $# -ne 2 ]; then
    echo "usage: $0 TB_REPORT OUT_DIR | $0 --benches" >&2
    exit 2
fi
tb_report=$1
out=$2
bench_dir=$(dirname "$tb_report")/../bench
mkdir -p "$out/bench"
log=$(mktemp)
trap 'rm -f "$log"' EXIT

# invoke NAME STDOUT ARGS...: one tb_report invocation printing to
# STDOUT; its stderr (which names the output paths) is shown only when
# it fails.
invoke() {
    local name=$1 stdout=$2
    shift 2
    if ! "$tb_report" "$@" > "$stdout" 2> "$log"; then
        echo "report_scenarios: $name failed: $tb_report $*" >&2
        cat "$log" >&2
        exit 1
    fi
}

# run NAME ARGS...: NAME.json, NAME.csv and the summary in NAME.txt.
run() {
    local name=$1
    shift
    invoke "$name" "$out/$name.txt" "$@" --json "$out/$name.json" \
        --csv "$out/$name.csv"
}

presets=(baseline acc acc-gpu p2p p2p-gen4 no-pool trainbox)
models=(VGG-19 Resnet-50 Inception-v4 RNN-S RNN-L Transformer-SR
        Transformer-AA)

for preset in "${presets[@]}"; do
    run "$preset-256" --preset "$preset" --accs 256
    for model in "${models[@]}"; do
        for accs in 8 32 64 256; do
            name="grid-$preset-$model-$accs"
            invoke "$name" /dev/null --preset "$preset" --model "$model" \
                --accs "$accs" --json "$out/$name.json"
        done
    done
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
run trace-baseline-32-ingest "${b32[@]}" --ingest \
    --trace "$out/trace-baseline-32-ingest.trace.json"

for b in "${benches[@]}"; do
    for format in txt csv; do
        flag=()
        [ "$format" = csv ] && flag=(--csv)
        if ! "$bench_dir/$b" "${flag[@]}" > "$out/bench/$b.$format" \
            2> "$log"; then
            echo "report_scenarios: bench $b failed: $bench_dir/$b" \
                "${flag[*]}" >&2
            cat "$log" >&2
            exit 1
        fi
    done
done

python3 - "$out" <<'EOF'
import csv
import json
import pathlib
import sys

bad = 0
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    try:
        with open(path) as f:
            json.load(f)
    except ValueError as e:
        print(f"report_scenarios: {path} is not valid JSON: {e}",
              file=sys.stderr)
        bad += 1
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
     "$(ls "$out"/*.csv | wc -l) CSV files in $out are well formed;" \
     "$(ls "$out"/bench | wc -l) bench outputs in $out/bench"
