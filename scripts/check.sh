#!/usr/bin/env sh
# Repo gate: formatting, lints, the diva-tidy static-analysis pass,
# tests (default + strict-invariants), a bench smoke run, and the
# profiling/trace-regression gate.
# Usage: scripts/check.sh  (from the repo root; pass --offline through
# CARGO_FLAGS if the environment has no registry access; set
# SKIP_BENCH=1 to skip the bench smoke, the budget wall-clock bound,
# the release allocator-attribution test and the benchmark package's
# tests during quick iterations,
# SKIP_FAULTS=1 to skip the fault-injection matrix,
# SKIP_DECOMP=1 to skip the decomposition differential,
# SKIP_PROFILE=1 to skip the profiling capture + trace-diff gate,
# SKIP_LIVE=1 to skip the live-telemetry mid-run scrape gate,
# SKIP_AUDIT=1 to skip the privacy-audit gate,
# SKIP_PROVENANCE=1 to skip the decision-provenance gate, and
# SKIP_TIDY_RATCHET=1 to skip the tidy ratchet gate).
set -eu

cd "$(dirname "$0")/.."
FLAGS="${CARGO_FLAGS:---offline}"
BASELINE="results/baseline/medical-4k.summary.json"

OBS_DIR=""
PROF_DIR=""
LIVE_DIR=""
AUDIT_DIR=""
PROV_DIR=""
cleanup() {
    [ -n "$OBS_DIR" ] && rm -rf "$OBS_DIR"
    [ -n "$PROF_DIR" ] && rm -rf "$PROF_DIR"
    [ -n "$LIVE_DIR" ] && rm -rf "$LIVE_DIR"
    [ -n "$AUDIT_DIR" ] && rm -rf "$AUDIT_DIR"
    [ -n "$PROV_DIR" ] && rm -rf "$PROV_DIR"
}
trap cleanup EXIT

# Shared medical-4k capture recipe: generate + sigma-gen + anonymize
# into $1 (the workdir), passing any extra anonymize flags through.
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
        --constraints "$dir/sigma.txt" -k 5 --quiet \
        --trace "$dir/trace.jsonl" --metrics "$dir/metrics.json" \
        --output "$dir/anon.csv" "$@"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy $FLAGS --workspace --all-targets -- -D warnings

if [ "${SKIP_TIDY_RATCHET:-0}" = "1" ]; then
    echo "==> diva-tidy ratchet gate skipped (SKIP_TIDY_RATCHET=1)"
else
    echo "==> diva-tidy (repo lint rules, ratcheted vs results/tidy-ratchet.json)"
    # Exit codes: 0 clean/within-ratchet, 1 regression, 2 tool error.
    tidy_status=0
    cargo run $FLAGS -q -p diva-tidy -- \
        --emit json --ratchet results/tidy-ratchet.json \
        >/dev/null || tidy_status=$?
    if [ "$tidy_status" -eq 1 ]; then
        echo "diva-tidy: new findings exceed the committed ratchet; fix them or," >&2
        echo "for rules that legitimately cannot reach zero yet, refresh with:" >&2
        echo "    cargo run -q -p diva-tidy -- --write-ratchet" >&2
        exit 1
    elif [ "$tidy_status" -ne 0 ]; then
        echo "diva-tidy: tool error (exit $tidy_status)" >&2
        exit "$tidy_status"
    fi
fi

echo "==> cargo test -q"
cargo test $FLAGS -q --workspace

echo "==> cargo test -q --features strict-invariants (runtime validators)"
cargo test $FLAGS -q --features strict-invariants -p diva-core
cargo test $FLAGS -q --features strict-invariants --test pipeline

if [ "${SKIP_DECOMP:-0}" = "1" ]; then
    echo "==> decomposition differential skipped (SKIP_DECOMP=1)"
else
    echo "==> decomposition differential under strict-invariants (byte-identity)"
    cargo test $FLAGS -q --features strict-invariants --test differential \
        decomposed_solve_is_byte_identical_to_monolithic
fi

if [ "${SKIP_FAULTS:-0}" = "1" ]; then
    echo "==> fault-injection matrix skipped (SKIP_FAULTS=1)"
else
    echo "==> cargo test -q --features fault-inject --test faults (fault matrix)"
    cargo test $FLAGS -q --features fault-inject --test faults
    echo "==> fault matrix under strict-invariants"
    cargo test $FLAGS -q --features "fault-inject strict-invariants" --test faults
fi

if [ "${SKIP_BENCH:-0}" = "1" ]; then
    echo "==> bench smoke skipped (SKIP_BENCH=1)"
    echo "==> budget acceptance wall-clock bound skipped (SKIP_BENCH=1)"
    echo "==> release counting allocator attribution skipped (SKIP_BENCH=1)"
    echo "==> benchmark package tests skipped (SKIP_BENCH=1)"
    echo "==> obs trace check skipped (SKIP_BENCH=1)"
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

    # The diva CLI and the benchmark install the counting allocator in
    # release builds, so its attribution is also checked optimized.
    echo "==> counting allocator attribution (release)"
    cargo test $FLAGS -q --release -p diva-obs --features alloc-profile --test alloc_profile

    # The benchmark is its own package (not a workspace member), so
    # the workspace test run above does not reach its tests.
    echo "==> benchmark package tests (crates/bench/src/bin/benchmark)"
    cargo test $FLAGS --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

    echo "==> obs trace check (medical-4k run -> trace-check)"
    capture_medical_4k "$OBS_DIR"
    cargo run $FLAGS --release -q -p diva-obs --bin trace-check -- \
        "$OBS_DIR/trace.jsonl" "$OBS_DIR/metrics.json"
fi

if [ "${SKIP_LIVE:-0}" = "1" ]; then
    echo "==> live telemetry gate skipped (SKIP_LIVE=1)"
else
    echo "==> live telemetry gate (mid-run scrape of --stats-addr on medical-4k)"
    # Pre-build both binaries so the scrape client launches instantly
    # once the run is in flight.
    cargo build $FLAGS --release -q -p diva-cli -p diva-obs
    LIVE_DIR="$(mktemp -d)"
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- generate \
        --dataset medical --rows 4000 --seed 7 --output "$LIVE_DIR/medical.csv"
    # 15 proportional constraints make the colouring search long
    # enough (~10^5 nodes) that a mid-run snapshot is observable.
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- sigma-gen \
        --input "$LIVE_DIR/medical.csv" --roles qi,qi,qi,qi,qi,sensitive \
        --class proportional --count 15 --slack 0.7 --min-freq 20 \
        --output "$LIVE_DIR/sigma.txt"
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- anonymize \
        --input "$LIVE_DIR/medical.csv" --roles qi,qi,qi,qi,qi,sensitive \
        --constraints "$LIVE_DIR/sigma.txt" -k 5 --quiet \
        --metrics "$LIVE_DIR/metrics.json" --stats-addr 127.0.0.1:0 \
        --output "$LIVE_DIR/anon.csv" 2>"$LIVE_DIR/stderr.log" &
    live_pid=$!
    # The CLI binds port 0 and announces the resolved address on
    # stderr; poll for the announcement.
    live_addr=""
    i=0
    while [ "$i" -lt 400 ]; do
        live_addr=$(sed -n 's/^stats endpoint listening on //p' "$LIVE_DIR/stderr.log")
        [ -n "$live_addr" ] && break
        i=$((i + 1))
        sleep 0.01
    done
    if [ -z "$live_addr" ]; then
        cat "$LIVE_DIR/stderr.log" >&2
        echo "live: stats endpoint address never announced" >&2
        exit 1
    fi
    scrape_out=$(cargo run $FLAGS --release -q -p diva-obs --bin trace-check -- \
        --scrape "$live_addr" --timeout-ms 20000)
    echo "$scrape_out"
    wait "$live_pid"
    mid_nodes=$(printf '%s' "$scrape_out" | sed -n 's/^scrape ok: nodes=\([0-9]*\).*/\1/p')
    final_nodes=$(sed -n 's/.*"coloring.MaxFanOut.assignments_tried": *\([0-9]*\).*/\1/p' \
        "$LIVE_DIR/metrics.json")
    if [ -z "$mid_nodes" ] || [ -z "$final_nodes" ] \
        || [ "$mid_nodes" -le 0 ] || [ "$mid_nodes" -ge "$final_nodes" ]; then
        echo "live: mid-run node count ($mid_nodes) not strictly inside (0, $final_nodes)" >&2
        exit 1
    fi
    echo "live telemetry ok: scraped $mid_nodes of $final_nodes nodes mid-run"
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
    echo "==> decision-provenance gate (medical-4k --provenance + explain + byte-identity)"
    PROV_DIR="$(mktemp -d)"
    capture_medical_4k "$PROV_DIR" --provenance "$PROV_DIR/prov.jsonl"
    # The export must pass record/reference integrity validation.
    cargo run $FLAGS --release -q -p diva-obs --bin trace-check -- \
        --require-provenance "$PROV_DIR/prov.jsonl"
    # `diva explain` must answer the utility-attribution query against
    # the saved file (exit code is the gate).
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- explain \
        --provenance "$PROV_DIR/prov.jsonl" --top-costly
    # The disabled recorder is free: a run *without* --provenance must
    # publish the byte-identical relation.
    mv "$PROV_DIR/anon.csv" "$PROV_DIR/anon.with-prov.csv"
    cargo run $FLAGS --release -q -p diva-cli --bin diva -- anonymize \
        --input "$PROV_DIR/medical.csv" --roles qi,qi,qi,qi,qi,sensitive \
        --constraints "$PROV_DIR/sigma.txt" -k 5 --quiet \
        --output "$PROV_DIR/anon.csv"
    if ! cmp -s "$PROV_DIR/anon.csv" "$PROV_DIR/anon.with-prov.csv"; then
        echo "provenance: enabling --provenance changed the published relation" >&2
        exit 1
    fi
    echo "provenance ok: export validated, explain answered, output byte-identical"
fi

if [ "${SKIP_PROFILE:-0}" = "1" ]; then
    echo "==> profiling gate skipped (SKIP_PROFILE=1)"
else
    echo "==> cargo test -q --features alloc-profile (memory attribution)"
    cargo test $FLAGS -q --features alloc-profile --test profiling
    cargo test $FLAGS -q -p diva-obs --features alloc-profile

    echo "==> profiling capture (medical-4k with counting allocator + flamegraph)"
    PROF_DIR="$(mktemp -d)"
    capture_medical_4k "$PROF_DIR" --flame "$PROF_DIR/flame.folded"
    cargo run $FLAGS --release -q -p diva-obs --bin trace-check -- \
        --require-alloc "$PROF_DIR/trace.jsonl" "$PROF_DIR/metrics.json"

    echo "==> trace-diff regression gate (capture vs $BASELINE)"
    if ! cargo run $FLAGS --release -q -p diva-obs --bin trace-diff -- \
        "$BASELINE" "$PROF_DIR/metrics.json"; then
        cp "$PROF_DIR/metrics.json" "$BASELINE.candidate"
        echo "trace-diff: capture differs from the baseline; if intentional, refresh with: mv $BASELINE.candidate $BASELINE" >&2
        exit 1
    fi
fi

echo "==> all checks passed"
