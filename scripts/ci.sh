#!/usr/bin/env bash
# Offline-first CI gate for the SSDRec workspace.
#
#   1. Deny-list: no Cargo.toml may name a registry dependency — only
#      workspace path crates (ssdrec-*) are allowed.
#   2. cargo fmt --check
#   3. Offline release build of the whole workspace.
#   4. Offline test run.
#   5. Benchmark crate: build and test benchmark/ (its own cargo workspace
#      over the repository crates) into target/, with its lockfile as is.
#   6. Bench binaries smoke-run in fast mode (1 iteration each).
#   7. Serve smoke: train a tiny checkpoint, serve it on an ephemeral
#      port, issue one request over bash /dev/tcp (no curl), assert a
#      well-formed response, shut down cleanly.
#   8. Chaos smoke: re-serve the checkpoint with SSDREC_FAULTS arming one
#      read fault and one worker panic; retry until the response matches
#      the fault-free baseline byte-for-byte and /metrics reports the
#      recovery counters.
#   9. bench_serve latency-report smoke via `--fast` (writes
#      target/ssdrec-bench/serve_latency.csv).
#  10. Thread determinism: the golden HR@10/NDCG@10 test and a CLI train
#      run must produce byte-identical metrics under SSDREC_THREADS=1
#      and SSDREC_THREADS=4.
#  11. Pool identity: a CLI train run with the tensor pool on and one with
#      SSDREC_POOL=0 must emit byte-identical metric lines.
#  12. bench_alloc smoke: the pool-telemetry bench runs in fast mode and
#      BENCH_alloc.json parses with its pool fields present.
#  13. bench_runtime smoke: the thread sweep and the per-kernel
#      oracle-vs-production sweep run in fast mode and BENCH_runtime.json
#      at the repo root parses as JSON with the kernel_sweep_1t section
#      present and bits_match on every kernel.
#  14. Retrieval smoke: re-serve the checkpoint with --retrieval ann at an
#      exhaustive --ef-search; the response body must be byte-identical to
#      the exact-path baseline and /metrics must report the ann section.
#  15. bench_serve --retrieval smoke: the recall harness runs in fast mode
#      and BENCH_retrieval.json parses with recall@10 >= 0.95 per catalog.
#  16. Hot-swap smoke: ingest the smoke profile into an append-only log,
#      retrain into a versioned checkpoint dir, serve CURRENT, capture a
#      baseline body, ingest a delta under an armed stream.append latency
#      fault, retrain again, POST /reload — the body must change and
#      /metrics must report swap_total:1 at the new model_version.
#  17. bench_stream smoke: the online-loop harness (ingest throughput,
#      delta-retrain wall-clock, swap pause p99) runs in fast mode and
#      BENCH_stream.json parses with its telemetry fields present.
#  18. Out-of-core smoke: gen-data writes a columnar .ssdc file, `train
#      --data` runs off it in windowed and ram modes with byte-identical
#      metric lines, ingest bulk-loads it into a log, and bench_data runs
#      in fast mode with a valid BENCH_data.json.
#  19. Training-scenario smoke: `train --contrastive` and `train --mgsd`
#      each run two epochs and must emit byte-identical metric lines at
#      SSDREC_THREADS=1 and --threads 4.
#  20. table4 --fast smoke: the denoiser table runs every method in fast
#      mode and results/table4_fast.json parses with one row per method,
#      including the CL4SRec and MGSD-WSS rows.
#
# Everything runs with CARGO_NET_OFFLINE=true: any attempt to reach the
# registry fails the build immediately.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== registry-dependency deny-list =="
# Collect dependency names from every [*dependencies] section. A dependency
# is acceptable only if it is an ssdrec-* path crate (directly or via
# workspace = true).
fail=0
while IFS= read -r manifest; do
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/ || $0 ~ /dependencies\./) }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ {
            split($0, kv, "=");
            gsub(/[ \t]/, "", kv[1]);
            print kv[1];
        }
    ' "$manifest")
    for dep in $deps; do
        case "$dep" in
            ssdrec-*|version|edition|description) ;;
            *)
                echo "FORBIDDEN: registry dependency \`$dep\` in $manifest"
                fail=1
                ;;
        esac
    done
done < <(find . -path ./target -prune -o -name Cargo.toml -print)
if [ "$fail" -ne 0 ]; then
    echo "deny-list check FAILED: the workspace must stay registry-free"
    exit 1
fi
echo "ok: no registry dependencies"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== offline release build =="
cargo build --release --workspace

echo "== offline tests =="
cargo test --workspace -q

echo "== benchmark crate build + tests =="
# benchmark/ links the serve API, ssdrec_serve::json and the tensor crate
# without being a workspace member, so only this stage notices when a
# workspace change breaks it. It writes nothing under benchmark/.
CARGO_TARGET_DIR=target/benchmark \
    cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml -q

echo "== bench smoke (SSDREC_BENCH_FAST=1) =="
SSDREC_BENCH_FAST=1 cargo bench --workspace -q >/dev/null

echo "== serve smoke =="
SMOKE_DIR=target/ssdrec-smoke
mkdir -p "$SMOKE_DIR"
SMOKE_FLAGS="--profile beauty --scale 0.03 --dim 8 --max-len 12 --seed 7"
./target/release/ssdrec train $SMOKE_FLAGS --epochs 1 --out "$SMOKE_DIR/ckpt.ssdt" >/dev/null
./target/release/ssdrec serve $SMOKE_FLAGS --model "$SMOKE_DIR/ckpt.ssdt" \
    --addr 127.0.0.1:0 >"$SMOKE_DIR/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's#^serving on http://##p' "$SMOKE_DIR/serve.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "serve smoke FAILED: server did not announce its address"
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
PORT=${ADDR##*:}
# One request over bash's /dev/tcp (the workspace has no curl dependency).
# seq=1 is the only history guaranteed to be in range: the tiny smoke
# dataset can 5-core down to a catalogue of just a couple of items.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /recommend?user=0&seq=1&k=5 HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
RESP=$(cat <&3)
exec 3<&- 3>&-
if ! printf '%s' "$RESP" | grep -q '"items":\['; then
    echo "serve smoke FAILED: malformed response: $RESP"
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'POST /shutdown HTTP/1.1\r\nHost: smoke\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' >&3
cat <&3 >/dev/null
exec 3<&- 3>&-
wait "$SERVE_PID"
echo "ok: served a request on $ADDR and shut down cleanly"

echo "== chaos smoke (SSDREC_FAULTS: injected faults + recovery) =="
# The serve-smoke response doubles as the fault-free baseline: scores are
# bit-identical across server instances of the same checkpoint.
BASELINE=$(printf '%s' "$RESP" | awk 'body {print} /^\r?$/ {body=1}')
if [ -z "$BASELINE" ]; then
    echo "chaos smoke FAILED: could not extract the baseline body"
    exit 1
fi
SSDREC_FAULTS="serve.read:error:1,engine.batch:panic:1" \
    ./target/release/ssdrec serve $SMOKE_FLAGS --model "$SMOKE_DIR/ckpt.ssdt" \
    --addr 127.0.0.1:0 --workers 1 --cache 0 >"$SMOKE_DIR/chaos.log" 2>&1 &
CHAOS_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's#^serving on http://##p' "$SMOKE_DIR/chaos.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "chaos smoke FAILED: faulted server did not announce its address"
    kill "$CHAOS_PID" 2>/dev/null || true
    exit 1
fi
PORT=${ADDR##*:}
# Retry through the armed plan: one attempt dies on the injected read
# fault, one panics the worker mid-batch, and the respawned worker must
# then serve the exact baseline bytes.
BODY=""
TRIES=0
for _ in $(seq 1 20); do
    TRIES=$((TRIES + 1))
    BODY=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
              printf 'GET /recommend?user=0&seq=1&k=5 HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n' >&3 &&
              cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } 2>/dev/null ) || true
    [ "$BODY" = "$BASELINE" ] && break
    sleep 0.1
done
if [ "$BODY" != "$BASELINE" ]; then
    echo "chaos smoke FAILED: response never recovered to the baseline after $TRIES attempts"
    echo "  baseline: $BASELINE"
    echo "  last    : $BODY"
    kill "$CHAOS_PID" 2>/dev/null || true
    exit 1
fi
METRICS=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
             printf 'GET /metrics HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n' >&3 &&
             cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } )
for want in '"worker_panics":1' '"injected_total":2'; do
    if ! printf '%s' "$METRICS" | grep -qF "$want"; then
        echo "chaos smoke FAILED: /metrics missing $want: $METRICS"
        kill "$CHAOS_PID" 2>/dev/null || true
        exit 1
    fi
done
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'POST /shutdown HTTP/1.1\r\nHost: chaos\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' >&3
cat <&3 >/dev/null
exec 3<&- 3>&-
wait "$CHAOS_PID"
echo "ok: recovered to baseline bytes in $TRIES attempt(s); worker respawned after injected panic"

echo "== retrieval smoke (ann exhaustive-ef vs exact baseline) =="
# An ef_search that covers any smoke catalogue makes the ANN stage
# exhaustive, so the two-stage path must reproduce the exact path's bytes.
./target/release/ssdrec serve $SMOKE_FLAGS --model "$SMOKE_DIR/ckpt.ssdt" \
    --addr 127.0.0.1:0 --retrieval ann --ef-search 100000 \
    >"$SMOKE_DIR/ann.log" 2>&1 &
ANN_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's#^serving on http://##p' "$SMOKE_DIR/ann.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "retrieval smoke FAILED: ann server did not announce its address"
    kill "$ANN_PID" 2>/dev/null || true
    exit 1
fi
PORT=${ADDR##*:}
ANN_BODY=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
              printf 'GET /recommend?user=0&seq=1&k=5 HTTP/1.1\r\nHost: ann\r\nConnection: close\r\n\r\n' >&3 &&
              cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } )
if [ "$ANN_BODY" != "$BASELINE" ]; then
    echo "retrieval smoke FAILED: ann response diverged from the exact baseline"
    echo "  baseline: $BASELINE"
    echo "  ann     : $ANN_BODY"
    kill "$ANN_PID" 2>/dev/null || true
    exit 1
fi
ANN_METRICS=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
                 printf 'GET /metrics HTTP/1.1\r\nHost: ann\r\nConnection: close\r\n\r\n' >&3 &&
                 cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } )
if ! printf '%s' "$ANN_METRICS" | grep -qF '"mode":"ann"'; then
    echo "retrieval smoke FAILED: /metrics missing the ann retrieval section: $ANN_METRICS"
    kill "$ANN_PID" 2>/dev/null || true
    exit 1
fi
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'POST /shutdown HTTP/1.1\r\nHost: ann\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' >&3
cat <&3 >/dev/null
exec 3<&- 3>&-
wait "$ANN_PID"
echo "ok: exhaustive-ef ann bytes match the exact baseline; /metrics reports ann"

echo "== bench_serve latency smoke =="
cargo run --release -q -p ssdrec-bench --bin bench_serve -- --fast >/dev/null
test -f target/ssdrec-bench/serve_latency.csv
echo "ok: latency report at target/ssdrec-bench/serve_latency.csv"

echo "== thread determinism (golden metrics at 1 vs 4 threads) =="
# The golden test pins exact f64 metrics; it must pass under both thread
# counts — any parallel kernel that reorders a float sum fails it.
SSDREC_THREADS=1 cargo test --release -q --test golden_determinism
SSDREC_THREADS=4 cargo test --release -q --test golden_determinism
# And a CLI train run must emit byte-identical metric lines either way.
DET_DIR=target/ssdrec-smoke
mkdir -p "$DET_DIR"
SSDREC_THREADS=1 ./target/release/ssdrec train $SMOKE_FLAGS --epochs 1 \
    | grep -E '^(valid|test)' >"$DET_DIR/metrics_t1.txt"
./target/release/ssdrec train $SMOKE_FLAGS --epochs 1 --threads 4 \
    | grep -E '^(valid|test)' >"$DET_DIR/metrics_t4.txt"
if ! diff -u "$DET_DIR/metrics_t1.txt" "$DET_DIR/metrics_t4.txt"; then
    echo "thread determinism FAILED: metrics differ between 1 and 4 threads"
    exit 1
fi
echo "ok: golden + CLI metrics identical at 1 and 4 threads"

echo "== pool identity (pooled vs fresh CLI metrics) =="
# The step-scoped buffer pool must never change a bit of output: a train
# run with the pool on and one with SSDREC_POOL=0 (plain allocations) must
# emit byte-identical metric lines.
POOL_DIR=target/ssdrec-smoke
mkdir -p "$POOL_DIR"
./target/release/ssdrec train $SMOKE_FLAGS --epochs 1 \
    | grep -E '^(valid|test)' >"$POOL_DIR/metrics_pooled.txt"
SSDREC_POOL=0 ./target/release/ssdrec train $SMOKE_FLAGS --epochs 1 \
    | grep -E '^(valid|test)' >"$POOL_DIR/metrics_fresh.txt"
if ! diff -u "$POOL_DIR/metrics_pooled.txt" "$POOL_DIR/metrics_fresh.txt"; then
    echo "pool identity FAILED: metrics differ between pooled and fresh runs"
    exit 1
fi
echo "ok: pooled and fresh metrics byte-identical"

echo "== bench_alloc pool-telemetry smoke =="
# Fast mode still asserts the >= 90% steady-state hit-rate contract
# internally; here we additionally check the JSON report parses.
SSDREC_BENCH_FAST=1 cargo run --release -q -p ssdrec-bench --bin bench_alloc >/dev/null
test -f BENCH_alloc.json
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json; r = json.load(open("BENCH_alloc.json")); [r[k] for k in ("pool_hits", "pool_misses", "bytes_recycled", "hit_rate_from_step2")]'
fi
# The smoke overwrote the committed full-mode report; restore it so CI
# leaves the tree clean.
git checkout -- BENCH_alloc.json 2>/dev/null || true
echo "ok: BENCH_alloc.json written and valid"

echo "== bench_runtime thread + kernel sweep smoke =="
SSDREC_BENCH_FAST=1 cargo run --release -q -p ssdrec-bench --bin bench_runtime >/dev/null
test -f BENCH_runtime.json
# Must parse as JSON with the per-kernel oracle sweep present: python3 if
# available, else the workspace parser already validated it inside
# bench_runtime before writing (and asserted bits_match on every kernel).
if command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
r = json.load(open("BENCH_runtime.json"))
ks = r["kernel_sweep_1t"]
assert ks, "kernel_sweep_1t is empty"
assert all(p["bits_match"] for p in ks), "a kernel diverged from the oracle"
assert any(p["kernel"].startswith("gemm_") for p in ks), "gemm variants missing"
'
fi
# The smoke overwrote the committed full-mode report; restore it so CI
# leaves the tree clean.
git checkout -- BENCH_runtime.json 2>/dev/null || true
echo "ok: BENCH_runtime.json written and valid"

echo "== bench_serve retrieval recall smoke =="
SSDREC_BENCH_FAST=1 cargo run --release -q -p ssdrec-bench --bin bench_serve -- --retrieval >/dev/null
test -f BENCH_retrieval.json
# The harness already asserts recall@10 >= 0.95 and the determinism
# contract internally; double-check the committed-schema fields parse.
if command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
r = json.load(open("BENCH_retrieval.json"))
assert r["deterministic_rebuild"] and r["thread_invariant_build"]
cats = r["catalogs"]
assert cats, "catalogs is empty"
for c in cats:
    assert c["recall_at_10"] >= 0.95, c
    assert c["serve_bits_stable"], c
'
fi
# The smoke overwrote the committed full-mode report; restore it so CI
# leaves the tree clean.
git checkout -- BENCH_retrieval.json 2>/dev/null || true
echo "ok: BENCH_retrieval.json written and valid"

echo "== hot-swap smoke (ingest → retrain → serve --ckpt-dir → /reload) =="
STREAM_DIR=target/ssdrec-smoke/stream
rm -rf "$STREAM_DIR"
mkdir -p "$STREAM_DIR"
STREAM_LOG="$STREAM_DIR/events.sslg"
STREAM_CKPTS="$STREAM_DIR/ckpts"
RETRAIN_FLAGS="--epochs 1 --dim 8 --max-len 12 --seed 7 --batch-size 32"
# Day 0: bulk-load the smoke profile into the append-only log, publish v1.
./target/release/ssdrec ingest --log "$STREAM_LOG" $SMOKE_FLAGS >/dev/null
./target/release/ssdrec retrain --log "$STREAM_LOG" --ckpt-dir "$STREAM_CKPTS" \
    $RETRAIN_FLAGS >/dev/null
./target/release/ssdrec serve --ckpt-dir "$STREAM_CKPTS" --log "$STREAM_LOG" \
    --addr 127.0.0.1:0 --workers 1 --cache 0 >"$STREAM_DIR/serve.log" 2>&1 &
SWAP_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's#^serving on http://##p' "$STREAM_DIR/serve.log" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "hot-swap smoke FAILED: server did not announce its address"
    kill "$SWAP_PID" 2>/dev/null || true
    exit 1
fi
PORT=${ADDR##*:}
V1_BODY=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
             printf 'GET /recommend?user=0&seq=1&k=5 HTTP/1.1\r\nHost: swap\r\nConnection: close\r\n\r\n' >&3 &&
             cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } )
if [ -z "$V1_BODY" ]; then
    echo "hot-swap smoke FAILED: empty v1 baseline body"
    kill "$SWAP_PID" 2>/dev/null || true
    exit 1
fi
# Day 1: a small delta lands while a stream.append latency fault is armed
# (the writer must absorb the injected stall without corrupting the log),
# then the incremental round publishes v2.
SSDREC_FAULTS="stream.append:delay50:1" \
    ./target/release/ssdrec ingest --log "$STREAM_LOG" \
    --events "0:1,1:2,2:1,0:2" >/dev/null
./target/release/ssdrec retrain --log "$STREAM_LOG" --ckpt-dir "$STREAM_CKPTS" \
    $RETRAIN_FLAGS >/dev/null
RELOAD=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
            printf 'POST /reload HTTP/1.1\r\nHost: swap\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' >&3 &&
            cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } )
if ! printf '%s' "$RELOAD" | grep -qF '"status":"swapped"'; then
    echo "hot-swap smoke FAILED: /reload did not swap: $RELOAD"
    kill "$SWAP_PID" 2>/dev/null || true
    exit 1
fi
V2_BODY=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
             printf 'GET /recommend?user=0&seq=1&k=5 HTTP/1.1\r\nHost: swap\r\nConnection: close\r\n\r\n' >&3 &&
             cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } )
if [ "$V2_BODY" = "$V1_BODY" ]; then
    echo "hot-swap smoke FAILED: the served body did not change after the swap"
    kill "$SWAP_PID" 2>/dev/null || true
    exit 1
fi
SWAP_METRICS=$( { exec 3<>"/dev/tcp/127.0.0.1/$PORT" &&
                  printf 'GET /metrics HTTP/1.1\r\nHost: swap\r\nConnection: close\r\n\r\n' >&3 &&
                  cat <&3 | awk 'body {print} /^\r?$/ {body=1}'; } )
for want in '"swap_total":1' '"model_version":2' '"swap_failed_total":0'; do
    if ! printf '%s' "$SWAP_METRICS" | grep -qF "$want"; then
        echo "hot-swap smoke FAILED: /metrics missing $want: $SWAP_METRICS"
        kill "$SWAP_PID" 2>/dev/null || true
        exit 1
    fi
done
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'POST /shutdown HTTP/1.1\r\nHost: swap\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' >&3
cat <&3 >/dev/null
exec 3<&- 3>&-
wait "$SWAP_PID"
echo "ok: hot-swapped v1 → v2 with zero downtime; /metrics reports the swap"

echo "== bench_stream online-loop smoke =="
SSDREC_BENCH_FAST=1 cargo run --release -q -p ssdrec-bench --bin bench_stream >/dev/null
test -f BENCH_stream.json
if command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
r = json.load(open("BENCH_stream.json"))
assert r["ingest_records"] > 0 and r["ingest_records_per_sec"] > 0
assert r["retrain_delta_ms"] > 0 and r["swaps"] > 0
assert r["swap_pause_p99_ms"] >= 0 and r["pause_samples"] > 0
assert r["final_model_version"] == 2 + r["swaps"]
'
fi
# The smoke overwrote the committed full-mode report; restore it so CI
# leaves the tree clean.
git checkout -- BENCH_stream.json 2>/dev/null || true
echo "ok: BENCH_stream.json written and valid"

echo "== out-of-core smoke (gen-data → train --data windowed/ram → ingest --data) =="
OOC_DIR=target/ssdrec-smoke/ooc
rm -rf "$OOC_DIR"
mkdir -p "$OOC_DIR"
OOC_FILE="$OOC_DIR/smoke.ssdc"
./target/release/ssdrec gen-data --profile beauty --scale 0.1 --seed 7 \
    --out "$OOC_FILE" >/dev/null
test -f "$OOC_FILE"
# The same columnar file trained windowed and fully-decoded must emit
# byte-identical metric lines: the bounded-RAM path is not allowed to cost
# a single bit of output.
./target/release/ssdrec train --data "$OOC_FILE" --data-mode windowed \
    --epochs 1 --dim 8 --seed 7 \
    | grep -E '^(data|valid|test)' >"$OOC_DIR/metrics_windowed.txt"
./target/release/ssdrec train --data "$OOC_FILE" --data-mode ram \
    --epochs 1 --dim 8 --seed 7 \
    | grep -E '^(data|valid|test)' >"$OOC_DIR/metrics_ram.txt"
if ! diff -u "$OOC_DIR/metrics_windowed.txt" "$OOC_DIR/metrics_ram.txt"; then
    echo "out-of-core smoke FAILED: windowed and ram metrics differ"
    exit 1
fi
# Bulk-load the columnar file into a fresh log; the record count must
# match the file's interaction count.
./target/release/ssdrec ingest --log "$OOC_DIR/events.sslg" --data "$OOC_FILE" \
    >"$OOC_DIR/ingest.txt"
grep -q '^created' "$OOC_DIR/ingest.txt"
echo "ok: windowed and ram metrics byte-identical; columnar bulk-load ingested"

echo "== bench_data out-of-core pipeline smoke =="
SSDREC_BENCH_FAST=1 cargo run --release -q -p ssdrec-bench --bin bench_data >/dev/null
test -f BENCH_data.json
if command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
r = json.load(open("BENCH_data.json"))
assert r["interactions"] > 0 and r["file_bytes"] > 0
assert r["encode_interactions_per_sec"] > 0 and r["scan_interactions_per_sec"] > 0
assert r["graph_edges"] > 0 and r["graph_interactions_per_sec"] > 0
assert r["peak_rss_bytes"] >= 0 and r["rss_budget_bytes"] > 0
'
fi
# The smoke overwrote the committed full-mode report; restore it so CI
# leaves the tree clean.
git checkout -- BENCH_data.json 2>/dev/null || true
echo "ok: BENCH_data.json written and valid"

echo "== training-scenario smoke (--contrastive / --mgsd at 1 vs 4 threads) =="
SC_DIR=target/ssdrec-smoke/scenarios
mkdir -p "$SC_DIR"
for sc in contrastive mgsd; do
    SSDREC_THREADS=1 ./target/release/ssdrec train $SMOKE_FLAGS --epochs 2 --$sc \
        | grep -E '^(valid|test)' >"$SC_DIR/metrics_${sc}_t1.txt"
    ./target/release/ssdrec train $SMOKE_FLAGS --epochs 2 --$sc --threads 4 \
        | grep -E '^(valid|test)' >"$SC_DIR/metrics_${sc}_t4.txt"
    if ! diff -u "$SC_DIR/metrics_${sc}_t1.txt" "$SC_DIR/metrics_${sc}_t4.txt"; then
        echo "scenario smoke FAILED: --$sc metrics differ between 1 and 4 threads"
        exit 1
    fi
done
echo "ok: --contrastive and --mgsd metrics byte-identical at 1 and 4 threads"

echo "== table4 --fast JSON smoke (CL4SRec + MGSD-WSS rows) =="
rm -f results/table4_fast.json
cargo run --release -q -p ssdrec-bench --bin table4_denoisers -- --fast >/dev/null
test -f results/table4_fast.json
if command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json
rows = json.load(open("results/table4_fast.json"))
assert len(rows) == 8, f"expected 8 rows, got {len(rows)}"
models = [r["model"] for r in rows]
for want in ("DSAN", "FMLP-Rec", "HSD", "DCRec", "STEAM", "CL4SRec", "MGSD-WSS", "SSDRec"):
    assert want in models, f"missing row {want}"
for r in rows:
    assert r["dataset"], r
    for k in ("hr10", "hr20", "ndcg10"):
        assert 0.0 <= r[k] <= 1.0, r
'
fi
# The fast run wrote scratch reports into results/; drop them so CI leaves
# the tree clean (the directory is not under version control).
rm -f results/table4_fast.json results/table4_denoisers.csv
echo "ok: table4_fast.json has one valid row per method, new rows included"

echo "CI: all checks passed"
