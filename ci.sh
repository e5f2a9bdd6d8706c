#!/usr/bin/env bash
# CI entry point: tier-1 (build + root test suite), the workspace tests,
# clippy, rustdoc, the benchmark's contract tests, a short run of every
# benchmark workload, a run of every example, every table at CI scale,
# bounded fixed-seed differential, fault-campaign and crash-resume passes,
# and lockstep conformance over the paper's full 8,000-sample database;
# deterministic outputs are diffed against tests/golden/.
# Everything here is deterministic; a red run reproduces locally with the
# same commands.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests (every crate's unit and integration tests) =="
# The root manifest is both a package and the workspace, so plain
# `cargo test` covers only the root package; the tier-1 stage above has
# just run that package's tests, so they are not run again here.
cargo test -q --workspace --exclude decimalarith

echo "== lint: clippy over the workspace (warnings are errors) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== docs: rustdoc over the workspace libraries (warnings are errors) =="
# Catches doc links left dangling by renamed or deleted items. `--lib`
# skips the binaries, whose doc output would collide with the libraries of
# the same name (`lockstep`, `rvlint`).
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --lib

echo "== benchmark contract tests =="
# perfbench is a package of its own (outside the workspace); these check
# its metric names, result line and determinism record.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== benchmark smoke run: every workload, 3 s each =="
# The contract tests compile the benchmark but never run it against the
# changed crates; this runs each workload the way BENCHMARK.json does, and
# a nonzero exit (a build failure, a wrong result) fails CI.
for workload in paper_eval ledger_batches fault_campaign lockstep_conformance; do
    echo "-- $workload"
    python3 perfbench/run.py --workload "$workload" --seed 11 --seconds 3 --trace 0
done

echo "== examples: run every program under examples/ =="
# Clippy only compiles the examples; this runs each one, and a nonzero
# exit (a panic, a failed assertion) fails CI. Standard output is dropped
# to keep this log short; rerun a failing example to see it.
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "-- $name"
    cargo run -q --release --example "$name" > /dev/null
done

echo "== tables: regenerate every table, ablation and microbenchmark =="
# Runs each `tables` subcommand once at CI scale; a panic or a typed
# failure (a guest that faults, a result mismatch) exits nonzero and fails
# CI. Standard output is dropped: host timings differ run to run.
cargo run -q --release -p decimal-bench --bin tables -- all --samples 120 --reps 1 > /dev/null

# Deterministic outputs are diffed against the goldens in tests/golden/:
# a change that moves a simulated number, a report line or a table cell
# fails here. A change that means to move one regenerates its golden with
# the same command and says why.
CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT
# Runs a command, prints its stdout and diffs it against golden file $1.
check_golden() {
    local golden=$1
    shift
    "$@" | tee "$CI_TMP/golden.out"
    diff -u "tests/golden/$golden" "$CI_TMP/golden.out"
}

echo "== static analysis: rvlint over every kernel guest =="
# Lints every co-design kernel guest (CFG/dataflow + RoCC-protocol
# typestate + BCD operand checks) across generated vector databases of
# increasing size. Exits nonzero on any Error-severity finding; the
# verbose report (kernel statistics and notes) is diffed against its
# golden. The broken-fixture suite (tests/rvlint_fixtures.rs) already ran
# in tier-1.
check_golden rvlint.txt \
    cargo run -q --release -p decimal-bench --bin rvlint -- --seed 2019 --verbose

echo "== tables: deterministic outputs against their goldens =="
# Every subcommand but `table5`, `micro` and `all`, which print host times.
for table in table2 table3 table4 table6 pareto classes seeds ablations; do
    echo "-- $table"
    check_golden "tables_$table.txt" \
        cargo run -q --release -p decimal-bench --bin tables -- "$table" --samples 120 --seed 2019
done

echo "== differential verification (bounded) =="
# Conformance on a CI-sized database slice, a 200-program fuzz run, and
# the RoCC command differential — all on the paper's seed.
check_golden lockstep_all.txt \
    cargo run --release -p decimal-bench --bin lockstep -- all \
    --seed 2019 --samples 200 --programs 200 --commands 10000

echo "== differential verification (paper scale) =="
# Conformance over the paper's full 8,000-sample database: every kernel on
# every simulator pair, every retirement compared.
cargo run --release -p decimal-bench --bin lockstep -- conformance \
    --seed 2019 --samples 8000

echo "== fault-injection campaign (bounded, fixed seed) =="
# 500 seeded single-bit faults against the plain and the fault-tolerant
# Method-1 guests. Fails on any replay outside the four outcome classes,
# and on any silent data corruption slipping past the fault-tolerant
# kernel's detection net.
check_golden lockstep_faults.txt \
    cargo run --release -p decimal-bench --bin lockstep -- faults \
    --seed 2019 --faults 500 --fault-samples 6

echo "== crash-safe resume (kill -9 mid-campaign, resume, diff) =="
# A journaled campaign is started, killed with -9 once its first kernel's
# journal holds a few dozen cases (seconds before the campaign would end),
# and resumed from its journals; the resumed stdout must be byte-identical
# to an uninterrupted run's. If the last kernel's journal turns out
# complete, the kill landed after the campaign finished and the resume
# would only replay the journal, so the stage fails.
LOCKSTEP=target/release/lockstep
RESUME_DIR="$CI_TMP"
KILL_FAULTS=20000
CAMPAIGN=(faults --seed 2019 --faults "$KILL_FAULTS" --fault-samples 6 --checkpoint-every 500)
"$LOCKSTEP" "${CAMPAIGN[@]}" --journal "$RESUME_DIR/full.journal" \
    > "$RESUME_DIR/full.out" 2>/dev/null
"$LOCKSTEP" "${CAMPAIGN[@]}" --journal "$RESUME_DIR/killed.journal" \
    > "$RESUME_DIR/killed.out" 2>/dev/null &
KILLED_PID=$!
while kill -0 "$KILLED_PID" 2>/dev/null \
    && [ "$(cat "$RESUME_DIR/killed.journal.method1" 2>/dev/null | wc -l)" -lt 40 ]; do
    sleep 0.01
done
kill -9 "$KILLED_PID" 2>/dev/null || true
wait "$KILLED_PID" 2>/dev/null || true
if grep -q "^case $((KILL_FAULTS - 1)) " "$RESUME_DIR/killed.journal.method1_ft" 2>/dev/null; then
    echo "ci: the kill landed after the campaign completed; nothing was resumed" >&2
    exit 1
fi
echo "killed after $(cat "$RESUME_DIR"/killed.journal.* | grep -c '^case ') journaled cases"
"$LOCKSTEP" "${CAMPAIGN[@]}" --resume "$RESUME_DIR/killed.journal" \
    > "$RESUME_DIR/resumed.out" 2>/dev/null
diff "$RESUME_DIR/full.out" "$RESUME_DIR/resumed.out"
echo "resumed campaign output is byte-identical"

echo "== crash-safe resume (cut fuzz and conformance journals in half, resume, diff) =="
# The other two journaled runs: each journal is cut to half its bytes (a
# deterministic torn tail, unlike the kill above) and resumed; the resumed
# stdout must be byte-identical to the uninterrupted run's.
cut_and_resume() {
    local name=$1
    shift
    "$LOCKSTEP" "$name" "$@" --journal "$RESUME_DIR/$name.journal" \
        > "$RESUME_DIR/$name.full.out" 2>/dev/null
    local bytes
    bytes=$(wc -c < "$RESUME_DIR/$name.journal")
    head -c $((bytes / 2)) "$RESUME_DIR/$name.journal" > "$RESUME_DIR/$name.cut.journal"
    "$LOCKSTEP" "$name" "$@" --resume "$RESUME_DIR/$name.cut.journal" \
        > "$RESUME_DIR/$name.resumed.out" 2>/dev/null
    diff "$RESUME_DIR/$name.full.out" "$RESUME_DIR/$name.resumed.out"
    echo "resumed $name output is byte-identical"
}
cut_and_resume fuzz --seed 2019 --programs 50
cut_and_resume conformance --seed 2019 --samples 50

echo "ci: all checks passed"
