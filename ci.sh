#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, clippy with warnings as
# errors, formatting, end-to-end smoke runs, and the end-to-end
# benchmark's golden digests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc builds without a warning: an unresolved or redundant link, or a
# public doc that links to a private item, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Optional: Miri over the concurrency-sensitive tests — the oeb-trace
# event-buffer suite (thread-local buffers flushed into a global
# registry) and the executor's slot-collection tests (per-worker Mutex
# slots drained after join). Miri needs a nightly toolchain, so this
# job is advisory: skipped with a notice when nightly+miri are absent,
# and a failure warns rather than gating (continue-on-error) because
# the sandboxed CI image cannot always provide the component.
if cargo +nightly miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p oeb-trace --test trace \
        || echo "ci: warning: miri (oeb-trace) failed — advisory only" >&2
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p oeb-core --lib executor::tests::parallel_map \
        || echo "ci: warning: miri (executor) failed — advisory only" >&2
else
    echo "ci: nightly miri not installed — skipping miri job" >&2
fi

cargo fmt --check

# Smoke: the examples. clippy --all-targets compiles them; this runs each
# one once in release (about a second in all) and fails on a nonzero
# exit. They are the callers of StreamLearner and DriftResetLearner
# outside the crates, and they write no files.
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    "target/release/examples/$name" > /dev/null \
        || { echo "ci: example $name failed" >&2; exit 1; }
done

# Smoke: the staged pipeline + parallel executor end to end (Table 4 at
# a tiny scale, four workers).
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# Static invariant gate (oeb-lint v2): the token rules (determinism,
# NaN-safety, panic hygiene) plus the workspace-level semantic rules
# (counter vocabulary sync, exit-code registry, lock-order cycles,
# stale suppressions) — see DESIGN.md, "Static invariants". The JSON
# report lands in the smoke dir; --time-budget-ms is a self-timing
# gate — the full workspace pass (index + all rules) must stay under
# one second or the lint itself fails CI. For remediation guidance run
# it by hand:
#   cargo run --release -p oeb-lint -- check --fix-hints
cargo run --release -p oeb-lint -- check --json --time-budget-ms 1000 \
    > "$smoke_dir/LINT_report.json" \
    || { cat "$smoke_dir/LINT_report.json"; exit 1; }
cargo run --release -p oeb-bench --bin repro -- table4 \
    --scale 0.05 --seeds 1 --threads 4 --out "$smoke_dir"

# Smoke: observability. The same run traced: every JSONL record must
# match the span schema (required keys, monotone ids — trace_check),
# the metrics table must show prepare-cache hits and the fast kernel
# paths at work (batched MLP SGD, Hoeffding split checks, the tiled
# training and Gram GEMMs that `gemm.dispatch.blocked` counts, pruned KNN
# candidates; their bits are pinned by the crate tests), and
# the result artifact must be byte-identical to the untraced run
# (table4.txt holds only losses; table4.json embeds wall-clock
# throughput, so the bit-identity contract is checked on the .txt).
cargo run --release -p oeb-bench --bin repro -- table4 \
    --scale 0.05 --seeds 1 --threads 4 --out "$smoke_dir/traced" \
    --trace "$smoke_dir/trace.jsonl" --metrics 2> "$smoke_dir/metrics.txt" \
    || { cat "$smoke_dir/metrics.txt"; exit 1; }
cargo run --release -p oeb-bench --bin trace_check -- "$smoke_dir/trace.jsonl" \
    --counters "$smoke_dir/metrics.txt"
grep -Eq 'prepare\.cache\.hit +[1-9]' "$smoke_dir/metrics.txt" \
    || { echo "ci: no prepare-cache hits in --metrics output" >&2; exit 1; }
for c in 'train\.mlp\.gemm_batches' 'train\.hoeffding\.split_checks' \
         'gemm\.dispatch\.blocked' 'knn\.candidates\.pruned'; do
    grep -Eq "$c +[1-9]" "$smoke_dir/metrics.txt" \
        || { echo "ci: no $c in table4 --metrics output" >&2; exit 1; }
done
diff "$smoke_dir/table4.txt" "$smoke_dir/traced/table4.txt" \
    || { echo "ci: traced run diverged from untraced table4.txt" >&2; exit 1; }

# Smoke: attributed trace profiler. oeb-profile analyses the traced
# table4 run: the PROFILE.json schema must validate, the per-stage
# totals must equal the metrics-snapshot span aggregates exactly
# (--check-metrics), and the cell-attribution and per-item latency
# instruments must have fired. PROFILE.json lands next to the bench
# artifacts in the smoke dir.
cargo run --release -p oeb-bench --bin oeb-profile -- "$smoke_dir/trace.jsonl" \
    --out "$smoke_dir/PROFILE.json" --threads 4 \
    --check-metrics "$smoke_dir/metrics.txt"
for key in '"schema"' '"stages"' '"timeline"' '"cells"' '"utilization"' \
           '"lower_bound_ns"'; do
    grep -q "$key" "$smoke_dir/PROFILE.json" \
        || { echo "ci: PROFILE.json lacks $key" >&2; exit 1; }
done
grep -Eq 'profile\.cells\.attributed +[1-9]' "$smoke_dir/metrics.txt" \
    || { echo "ci: no profile.cells.attributed in --metrics output" >&2; exit 1; }
grep -Eq 'evaluate\.window\.latency_us +count=[1-9]' "$smoke_dir/metrics.txt" \
    || { echo "ci: no evaluate.window.latency_us histogram in --metrics output" >&2; exit 1; }

# Smoke: the experiment grid. Figure 14 (AIR x 7 imputers x 2 seeds x 3
# learners through run_matrix) must render byte-identically at one
# worker and at four, and the learners of each prepared stream must
# share it: run_matrix runs them back to back, so the prepare cache
# reports hits.
for threads in 1 4; do
    extra=()
    if [ "$threads" = 4 ]; then
        extra=(--metrics)
    fi
    cargo run --release -p oeb-bench --bin repro -- fig14 --scale 0.05 --seeds 2 \
        --threads "$threads" --out "$smoke_dir/fig14_t$threads" "${extra[@]}" \
        2> "$smoke_dir/fig14_t${threads}.err" \
        || { cat "$smoke_dir/fig14_t${threads}.err"; exit 1; }
done
diff "$smoke_dir/fig14_t1/fig14.txt" "$smoke_dir/fig14_t4/fig14.txt" \
    || { echo "ci: fig14 differs between 1 and 4 threads" >&2; exit 1; }
grep -Eq 'prepare\.cache\.hit +[1-9]' "$smoke_dir/fig14_t4.err" \
    || { echo "ci: fig14 learners did not share prepared streams" >&2; exit 1; }

# Gate: every paper artifact is pinned. `repro all --scale 0.05 --seeds 1`
# must reproduce the digests in tests/golden/repro-s0.05.sha256: its 24
# `.txt` and 8 `.svg` artifacts, byte-identical at any thread count.
# table5.txt and table10.txt hold wall-clock numbers and are left out.
# A change that moves a result bit regenerates the manifest and says why
# in CHANGES.md:
#   (cd <out> && ls *.txt *.svg | grep -vxe table5.txt -e table10.txt \
#       | LC_ALL=C sort | xargs sha256sum) > tests/golden/repro-s0.05.sha256
manifest="$PWD/tests/golden/repro-s0.05.sha256"
cargo run --release -p oeb-bench --bin repro -- all --scale 0.05 --seeds 1 \
    --threads 2 --out "$smoke_dir/repro_all" > /dev/null 2> "$smoke_dir/repro_all.err" \
    || { cat "$smoke_dir/repro_all.err"; exit 1; }
diff <(cd "$smoke_dir/repro_all" && ls ./*.txt ./*.svg | sed 's|^\./||' \
        | grep -vxe table5.txt -e table10.txt | LC_ALL=C sort) \
     <(awk '{print $2}' "$manifest") \
    || { echo "ci: repro artifact list differs from $manifest" >&2; exit 1; }
(cd "$smoke_dir/repro_all" && sha256sum --quiet -c "$manifest") \
    || { echo "ci: repro artifacts differ from $manifest" >&2; exit 1; }

# Smoke: traced-vs-untraced statistics. The stats report must be
# byte-identical with tracing on and off; the traced run's spans must
# validate, its counters must pass the counter vocabulary gate, and the
# per-column detector tasks must show up as stats.column spans.
cargo run --release --bin oebench -- stats "Electricity Prices" --scale 0.05 \
    > "$smoke_dir/stats_untraced.txt"
cargo run --release --bin oebench -- stats "Electricity Prices" --scale 0.05 \
    --trace "$smoke_dir/stats_trace.jsonl" \
    --metrics > "$smoke_dir/stats_traced.txt" 2> "$smoke_dir/stats_metrics.txt" \
    || { cat "$smoke_dir/stats_metrics.txt"; exit 1; }
diff "$smoke_dir/stats_untraced.txt" "$smoke_dir/stats_traced.txt" \
    || { echo "ci: traced stats diverged from the untraced run" >&2; exit 1; }
cargo run --release -p oeb-bench --bin trace_check -- "$smoke_dir/stats_trace.jsonl" \
    --counters "$smoke_dir/stats_metrics.txt"
grep -Eq 'stats\.column +count=[1-9]' "$smoke_dir/stats_metrics.txt" \
    || { echo "ci: no stats.column spans in stats --metrics output" >&2; exit 1; }

# Smoke: the statistics task list is thread-count invariant. The report
# must be byte-identical at one worker and at four. "Allstate
# Claims Severity" at scale 0.1 (100 encoded columns) reaches the wide
# PCA-CD refits and the long per-column ADWIN streams that "Electricity
# Prices" (7 columns) does not.
for target in "Electricity Prices@0.05" "Allstate Claims Severity@0.1"; do
    name="${target%@*}"
    scale="${target#*@}"
    tag="${name%% *}"
    for threads in 1 4; do
        cargo run --release --bin oebench -- stats "$name" --scale "$scale" \
            --threads "$threads" > "$smoke_dir/stats_${tag}_t${threads}.txt"
    done
    diff "$smoke_dir/stats_${tag}_t1.txt" "$smoke_dir/stats_${tag}_t4.txt" \
        || { echo "ci: $name stats differ between 1 and 4 threads" >&2; exit 1; }
done

# Smoke: chaos-soak supervision gate. An 8-cell fault x drift grid under
# full supervision: the chaos command itself exits nonzero on any
# violated invariant (escaped panic, dropped cell, missed quarantine,
# counter mismatch, nondeterministic deadline). On top of that, the
# traced run must validate against the span schema, the metrics table
# must surface the supervise.* counters, and the JSON report must carry
# the quarantine accounting. The scenarios fan out over the workers, so
# the report must be byte-identical at one worker and at four.
for threads in 1 4; do
    chaos="$smoke_dir/chaos_t$threads"
    cargo run --release --bin oebench -- chaos --limit 8 --max-retries 2 \
        --threads "$threads" --out "$chaos.json" --trace "${chaos}_trace.jsonl" \
        --metrics 2> "${chaos}_metrics.txt" \
        || { cat "${chaos}_metrics.txt"; exit 1; }
    cargo run --release -p oeb-bench --bin trace_check -- "${chaos}_trace.jsonl" \
        --counters "${chaos}_metrics.txt"
    grep -Eq 'supervise\.retries +[1-9]' "${chaos}_metrics.txt" \
        || { echo "ci: no supervise.retries in chaos --metrics output" >&2; exit 1; }
    grep -Eq 'supervise\.quarantined +[1-9]' "${chaos}_metrics.txt" \
        || { echo "ci: no supervise.quarantined in chaos --metrics output" >&2; exit 1; }
    grep -q '"quarantined"' "$chaos.json" \
        || { echo "ci: chaos report lacks quarantine accounting" >&2; exit 1; }
    grep -q '"violations": \[\]' "$chaos.json" \
        || { echo "ci: chaos report lists violations" >&2; exit 1; }
done
diff "$smoke_dir/chaos_t1.json" "$smoke_dir/chaos_t4.json" \
    || { echo "ci: chaos report differs between 1 and 4 threads" >&2; exit 1; }

# Smoke: supervision is a no-op on a healthy sweep. The same ten cells,
# plain and under a generous wall-clock deadline plus a retry budget,
# must write the same checkpoint once the wall-clock fields are
# stripped (line order follows scheduling, so sort), and the supervised
# run must report that it spent nothing.
for mode in plain supervised; do
    extra=()
    if [ "$mode" = supervised ]; then
        extra=(--cell-deadline 60 --max-retries 1)
    fi
    cargo run --release --bin oebench -- sweep --scale 0.05 --limit 10 --threads 4 \
        --out "$smoke_dir/sweep_$mode.jsonl" "${extra[@]}" > "$smoke_dir/sweep_$mode.txt"
    sed -E 's/"(train_seconds|test_seconds|throughput)":[0-9.e+-]+,?//g' \
        "$smoke_dir/sweep_$mode.jsonl" | sort > "$smoke_dir/sweep_$mode.stripped"
done
diff "$smoke_dir/sweep_plain.stripped" "$smoke_dir/sweep_supervised.stripped" \
    || { echo "ci: supervised sweep checkpoint diverged from the plain one" >&2; exit 1; }
grep -qx 'supervision: 0 retries, 0 recovered, 0 timed out (0 wall-clock), 0 quarantined' \
    "$smoke_dir/sweep_supervised.txt" \
    || { cat "$smoke_dir/sweep_supervised.txt"; echo "ci: supervised sweep spent its budget" >&2; exit 1; }

# Smoke: the end-to-end benchmark (oeb-benchmark/, its own package). The
# quick profile runs one pass of every workload with every invariance
# check and exits nonzero when one fails; then its own unit tests.
cargo run --release --offline --quiet --manifest-path oeb-benchmark/Cargo.toml -- \
    --quick --out "$smoke_dir/oeb_quick.json"
cargo test --offline --manifest-path oeb-benchmark/Cargo.toml

# Gate: every benchmark workload at full size. `--quick` skips the
# golden digests, so this run is what pins them: it exits 1 when any
# workload's pass-0 digest differs from the golden one, or when any
# timed pass or the decomposed one-thread pass differs from pass 0.
# `--out` keeps the results file out of the repo root.
cargo run --release --offline --quiet --manifest-path oeb-benchmark/Cargo.toml -- \
    --workload table4-grid --workload prepare-55 --workload stats-55 \
    --workload large-windows --seed 0 --seconds 1 --trace 0 \
    --out "$smoke_dir/golden.json"
