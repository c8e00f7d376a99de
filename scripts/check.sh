#!/usr/bin/env sh
# Repo gate: formatting, lints (the workspace's and the benchmark
# package's), rustdoc (a broken doc link fails), tests (the debug
# build runs the phase validators; the whole differential suite, the
# brute-force oracle suite and the failure matrix among them), a
# bench smoke run, one run of each example, and the
# profiling/trace-regression gate.
# The trace, metrics and live-endpoint formats are checked by the
# tests (crates/cli/tests/cli.rs), the provenance format by
# `diva explain` on an exact and a degraded (--deadline-ms 0)
# medical-4k log, each also published byte-identically without
# --provenance.
# Usage: scripts/check.sh  (from the repo root; pass --offline through
# CARGO_FLAGS if the environment has no registry access; set
# SKIP_BENCH=1 to skip the bench smoke, the budget wall-clock bound,
# the release oracle sweep, the release allocator-attribution test,
# the benchmark package's tests and the example runs during quick
# iterations,
# SKIP_PROFILE=1 to skip the profiling capture + trace-diff gate,
# SKIP_AUDIT=1 to skip the privacy-audit gate, and
# SKIP_PROVENANCE=1 to skip the decision-provenance gate).
set -eu

cd "$(dirname "$0")/.."
FLAGS="${CARGO_FLAGS:---offline}"
BASELINE="results/baseline/medical-4k.summary.json"

OBS_DIR=""
PROF_DIR=""
AUDIT_DIR=""
PROV_DIR=""
cleanup() {
    [ -n "$OBS_DIR" ] && rm -rf "$OBS_DIR"
    [ -n "$PROF_DIR" ] && rm -rf "$PROF_DIR"
    [ -n "$AUDIT_DIR" ] && rm -rf "$AUDIT_DIR"
    [ -n "$PROV_DIR" ] && rm -rf "$PROV_DIR"
}
trap cleanup EXIT

# Shared medical-4k capture recipe: generate + sigma-gen + anonymize
# into $1 (the workdir), passing any extra anonymize flags through.
# The worker count is pinned: it sizes the enumeration pool, whose
# thread setup the main thread's allocation counts see, so the exact
# trace-diff gate must not depend on the host's core count.
capture_medical_4k() {
    dir="$1"
    shift
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- generate \
        --dataset medical --rows 4000 --seed 7 --output "$dir/medical.csv"
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- sigma-gen \
        --input "$dir/medical.csv" --roles qi,qi,qi,qi,qi,sensitive \
        --class proportional --count 5 --slack 0.7 --min-freq 20 \
        --output "$dir/sigma.txt"
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- anonymize \
        --input "$dir/medical.csv" --roles qi,qi,qi,qi,qi,sensitive \
        --constraints "$dir/sigma.txt" -k 5 --threads 2 --quiet \
        --trace "$dir/trace.jsonl" --metrics "$dir/metrics.json" \
        --output "$dir/anon.csv" "$@"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy $FLAGS --workspace --all-targets -- -D warnings
# The benchmark is its own package, so it does not inherit the
# workspace lints; the root clippy.toml still applies. The hash-type
# ban covers only the search kernels.
cargo clippy $FLAGS --manifest-path crates/bench/src/bin/benchmark/Cargo.toml --all-targets \
    --no-deps -- -D warnings -A clippy::disallowed_types \
    -D clippy::undocumented_unsafe_blocks -D clippy::iter_over_hash_type

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc $FLAGS --no-deps --workspace

# A debug build runs the phase validators (DESIGN.md §8b), so this
# stage checks them on every pipeline test, the brute-force oracle's
# tiny instances, the differential suite and the failure matrix
# (tests/faults.rs) among them.
echo "==> cargo test -q"
cargo test $FLAGS -q --workspace

if [ "${SKIP_BENCH:-0}" = "1" ]; then
    echo "==> bench smoke skipped (SKIP_BENCH=1)"
    echo "==> budget acceptance wall-clock bound skipped (SKIP_BENCH=1)"
    echo "==> oracle sweep skipped (SKIP_BENCH=1)"
    echo "==> release counting allocator attribution skipped (SKIP_BENCH=1)"
    echo "==> benchmark package tests skipped (SKIP_BENCH=1)"
    echo "==> example runs skipped (SKIP_BENCH=1)"
else
    # The perf emitter writes into a temp dir: the committed
    # BENCH_diva.json is regenerated on purpose, not by the gate.
    echo "==> bench smoke (perf emitter, incl. the overhead pairs)"
    OBS_DIR="$(mktemp -d)"
    DIVA_BENCH_JSON="$OBS_DIR/BENCH_diva.json" \
        cargo run $FLAGS --release -p diva-bench --bin experiments -- perf >/dev/null

    # The wall-clock half of the budget acceptance run: degraded output
    # within 2x a calibrated deadline. Ignored by the plain test run.
    echo "==> budget acceptance wall-clock bound (release, --ignored)"
    cargo test $FLAGS -q --release --test budget_acceptance -- --ignored

    # The oracle's full sweep (6,000 tiny instances x 3 strategies;
    # the plain test stage samples 300): every exact table must be
    # k-anonymous and satisfy Sigma, and one on an instance the oracle
    # calls infeasible fails the sweep. Ignored by the plain run.
    echo "==> oracle sweep (release, --ignored)"
    cargo test $FLAGS -q --release --test oracle -- --ignored

    # The diva CLI and the benchmark install the counting allocator in
    # release builds, so its attribution is also checked optimized.
    echo "==> counting allocator attribution (release)"
    cargo test $FLAGS -q --release -p diva-obs --test alloc_profile

    # The benchmark is its own package (not a workspace member), so
    # the workspace test run above does not reach its tests.
    echo "==> benchmark package tests (crates/bench/src/bin/benchmark)"
    cargo test $FLAGS --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

    # `cargo test` builds the examples but runs none of them, so a
    # hang or a panic in one shows only here.
    echo "==> examples (release, one run each)"
    for example in quickstart credit_fairness healthcare census_workforce; do
        cargo run $FLAGS --release -q --example "$example" >/dev/null
    done
fi

if [ "${SKIP_AUDIT:-0}" = "1" ]; then
    echo "==> privacy-audit gate skipped (SKIP_AUDIT=1)"
else
    echo "==> privacy-audit gate (golden fixtures + medical-4k re-score)"
    AUDIT_DIR="$(mktemp -d)"
    # Golden fixtures: the CLI's deterministic JSON must match the
    # committed expectations byte-for-byte.
    for name in paper_table1_raw paper_table2 negative; do
        roles=$(cat "tests/fixtures/audit/$name.roles")
        cargo run $FLAGS --release -q -p diva-cli --bin diva -- audit \
            --input "tests/fixtures/audit/$name.csv" --roles "$roles" \
            --emit json --output "$AUDIT_DIR/$name.json"
        if ! diff -u "tests/fixtures/audit/$name.expect.json" \
            "$AUDIT_DIR/$name.json"; then
            echo "audit: fixture $name drifted from its committed expectation" >&2
            exit 1
        fi
    done
    # The negative fixture must fail its gates with a non-zero exit.
    if cargo run $FLAGS --release -q -p diva-cli --bin diva -- audit \
        --input tests/fixtures/audit/negative.csv --roles qi,sensitive \
        --k 3 --l 2 --emit table >/dev/null 2>&1; then
        echo "audit: negative fixture passed gates it must fail" >&2
        exit 1
    fi
    # Re-score the acceptance pipeline output: the solver's configured
    # k and the diversity floor must be confirmed by the independent
    # audit (exit code is the gate).
    capture_medical_4k "$AUDIT_DIR"
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- audit \
        --input "$AUDIT_DIR/anon.csv" --roles qi,qi,qi,qi,qi,sensitive \
        --k 5 --l 1 --emit table
    echo "privacy audit ok: fixtures byte-stable, medical-4k confirmed at k=5"
fi

if [ "${SKIP_PROVENANCE:-0}" = "1" ]; then
    echo "==> decision-provenance gate skipped (SKIP_PROVENANCE=1)"
else
    echo "==> decision-provenance gate (medical-4k exact and degraded: --provenance + explain + byte-identity)"
    PROV_DIR="$(mktemp -d)"
    capture_medical_4k "$PROV_DIR" --provenance "$PROV_DIR/prov.jsonl"
    # `diva explain` validates the saved file (records, references and
    # the attribution line) and must answer the utility-attribution
    # query against it (exit code is the gate).
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- explain \
        --provenance "$PROV_DIR/prov.jsonl" --top-costly
    # The disabled recorder is free: a run *without* --provenance must
    # publish the byte-identical relation.
    mv "$PROV_DIR/anon.csv" "$PROV_DIR/anon.with-prov.csv"
    anonymize_4k() {
        cargo run $FLAGS --release -q -p diva-cli --bin diva -- anonymize \
            --input "$PROV_DIR/medical.csv" --roles qi,qi,qi,qi,qi,sensitive \
            --constraints "$PROV_DIR/sigma.txt" -k 5 --quiet "$@"
    }
    anonymize_4k --output "$PROV_DIR/anon.csv"
    if ! cmp -s "$PROV_DIR/anon.csv" "$PROV_DIR/anon.with-prov.csv"; then
        echo "provenance: enabling --provenance changed the published relation" >&2
        exit 1
    fi
    # The same checks on a degraded run: a zero deadline stops the run
    # at its first checkpoint, so every row goes to the star block and
    # the log is one block of voided-or-residual cells, the largest
    # group `diva explain` validates.
    anonymize_4k --deadline-ms 0 --provenance "$PROV_DIR/degraded.jsonl" \
        --output "$PROV_DIR/degraded.with-prov.csv"
    anonymize_4k --deadline-ms 0 --output "$PROV_DIR/degraded.csv"
    if ! cmp -s "$PROV_DIR/degraded.csv" "$PROV_DIR/degraded.with-prov.csv"; then
        echo "provenance: enabling --provenance changed the degraded relation" >&2
        exit 1
    fi
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- explain \
        --provenance "$PROV_DIR/degraded.jsonl" --top-costly
    echo "provenance ok: explain validated and answered (exact and degraded), output byte-identical"
fi

if [ "${SKIP_PROFILE:-0}" = "1" ]; then
    echo "==> profiling gate skipped (SKIP_PROFILE=1)"
else
    echo "==> profiling capture (medical-4k with counting allocator + flamegraph)"
    PROF_DIR="$(mktemp -d)"
    capture_medical_4k "$PROF_DIR" --flame "$PROF_DIR/flame.folded"

    # The baseline has a positive alloc_bytes on every phase span, so
    # an exact match also proves the counting allocator is live.
    echo "==> trace-diff regression gate (capture vs $BASELINE)"
    if ! cargo run $FLAGS --release -q -p diva-obs --bin trace-diff -- \
        "$BASELINE" "$PROF_DIR/metrics.json"; then
        cp "$PROF_DIR/metrics.json" "$BASELINE.candidate"
        echo "trace-diff: capture differs from the baseline; if intentional, refresh with: mv $BASELINE.candidate $BASELINE" >&2
        exit 1
    fi
fi

echo "==> all checks passed"
