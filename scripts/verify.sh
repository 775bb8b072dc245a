#!/usr/bin/env bash
# Full local verification: format, lints, build, tests — all offline.
# This is what CI runs; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings; every crate, every target)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --offline --release

echo "==> tier-1: cargo test"
cargo test --offline -q

# The guard/commit logic of linear memory is most exposed in optimised
# builds, and release codegen is where white-box tests that rely on
# build-specific details break.
echo "==> interpreter unit tests, release profile"
cargo test --offline --release -q -p acctee-interp

# SHA-256 runs on the CPU's SHA extensions where it has them; their
# differential test against the portable compression function must
# also hold under optimised codegen.
echo "==> sgx crypto unit tests, release profile"
cargo test --offline --release -q -p acctee-sgx

# Likewise the framed logs' CRC-32 folds on the carry-less multiplier
# where the CPU has one; its differential test against the byte-wise
# loop must hold under optimised codegen.
echo "==> durable unit tests, release profile"
cargo test --offline --release -q -p acctee-durable

# A pipelined echo invoke's heap allocations on the server's threads,
# counted exactly by that test binary's counting allocator: the test
# fails above its budget, and the figure is echoed here either way.
echo "==> served-invoke allocation budget (alloc_budget)"
ALLOC_OUT="$(cargo test --offline --release -p acctee-integration --test alloc_budget \
    -- --nocapture 2>&1)" || { printf '%s\n' "$ALLOC_OUT"; echo "alloc_budget failed"; exit 1; }
grep '^alloc_budget:' <<<"$ALLOC_OUT" \
    || { printf '%s\n' "$ALLOC_OUT"; echo "alloc_budget printed no figure"; exit 1; }

echo "==> end-to-end benchmark builds and its unit tests pass (perfbench/)"
cargo build --offline --release --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> engine differential suite (tree vs regs, two-way)"
cargo test --offline -q -p acctee-integration --test engine_diff

echo "==> interpreter throughput smoke (BENCH_interp.json)"
cargo run --offline --release -q -p acctee-bench --bin interp -- 8 2 --out /tmp/BENCH_interp.json
# The register tier serves every unfueled execution, so it must stay
# well ahead of the tree-walker oracle on the per-kernel geomean, in
# this run and in the committed trajectory file alike.
for f in /tmp/BENCH_interp.json BENCH_interp.json; do
    REGS_X="$(awk '/"regs": \{/ { r = 1 } r && /"speedup_geomean_vs_tree"/ {
        gsub(/[^0-9.]/, "", $2); print $2; exit }' "$f")"
    [ -n "$REGS_X" ] || { echo "$f missing the regs speedup_geomean_vs_tree"; exit 1; }
    awk -v x="$REGS_X" 'BEGIN { exit !(x >= 3.0) }' \
        || { echo "$f: register tier only ${REGS_X}x tree (geomean; gate 3.0x)"; exit 1; }
    # What the accounting meter costs on the register tier is recorded
    # (not gated: it is a wall-clock ratio).
    grep -q '"instrumentation_overhead_geomean": -\?[0-9]' "$f" \
        || { echo "$f missing instrumentation_overhead_geomean"; exit 1; }
done

# fig9 binds a loopback server (its served rows); a short run keeps
# that path from rotting: six rows per function, every cell finite
# and above zero.
echo "==> fig9 smoke (plain, served and MiniJS paths)"
FIG9_OUT="$(cargo run --offline --release -q -p acctee-bench --bin fig9 -- 20 1)"
printf '%s\n' "$FIG9_OUT" | awk '
    /^## / { fn = $2; next }
    fn != "" && /^(WASM|JS)/ {
        ok = NF >= 5
        for (i = NF - 3; i <= NF; i++)
            if ($i !~ /^[0-9]+(\.[0-9]+)?$/ || $i + 0 <= 0) ok = 0
        if (ok) rows[fn]++; else bad++
    }
    END { exit !(rows["echo"] == 6 && rows["resize"] == 6 && bad == 0) }' \
    || { printf '%s\n' "$FIG9_OUT"; echo "fig9: expected six finite, positive rows per function"; exit 1; }

echo "==> artifact-cache concurrency suite"
cargo test --offline -q --release -p acctee-integration --test artifact_cache

ACCTEE_BIN="$(pwd)/target/release/acctee"

# The bill is engine-independent: the signed usage log (counter, peak
# memory, memory integral, I/O, invoice) printed by `account` must be
# byte-identical on the tree-walker oracle and on the default engine.
echo "==> bills match across engines (account: --engine tree vs default)"
for CALL in "fib --arg 30" "grow --arg 20"; do
    # shellcheck disable=SC2086
    TREE_BILL="$("$ACCTEE_BIN" account examples/demo.wat --engine tree --invoke $CALL \
        | sed -n '/^signed resource usage log/,$p')"
    # shellcheck disable=SC2086
    DEFAULT_BILL="$("$ACCTEE_BIN" account examples/demo.wat --invoke $CALL \
        | sed -n '/^signed resource usage log/,$p')"
    [ -n "$TREE_BILL" ] || { echo "account printed no signed log ($CALL)"; exit 1; }
    diff <(printf '%s\n' "$TREE_BILL") <(printf '%s\n' "$DEFAULT_BILL") \
        || { echo "signed log differs between tree and default engine ($CALL)"; exit 1; }
done

# serve / attested invoke / pipelined invoke / shutdown. The pipelined
# invoke exercises keep-alive multi-frame batches end to end (client
# write coalescing through server frame pump).
net_smoke() {
    echo "==> net serving smoke (serve / attested invoke / pipeline / shutdown)"
    local SERVE_LOG SERVE_PID ADDR
    SERVE_LOG="$(mktemp)"
    "$ACCTEE_BIN" serve --listen 127.0.0.1:0 >"$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR="$(sed -n 's/^listening on //p' "$SERVE_LOG")"
        if [ -n "$ADDR" ]; then break; fi
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "server never reported its address"; kill "$SERVE_PID"; exit 1; }
    # Capture first, grep after: piping straight into `grep -q` closes
    # the pipe at the first match and the client trips over EPIPE.
    local OUT
    OUT="$("$ACCTEE_BIN" invoke examples/demo.wat --connect "$ADDR" --invoke fib --arg 20)" \
        && grep -q "verified" <<<"$OUT" \
        || { echo "attested invoke failed"; kill "$SERVE_PID"; exit 1; }
    OUT="$("$ACCTEE_BIN" invoke examples/demo.wat --connect "$ADDR" --invoke fib --arg 10 --repeat 4)" \
        && grep -q "pipelined 4 invokes" <<<"$OUT" \
        || { echo "pipelined invoke failed"; kill "$SERVE_PID"; exit 1; }
    "$ACCTEE_BIN" shutdown --connect "$ADDR"
    wait "$SERVE_PID"   # graceful drain: the server must exit 0 on its own
    rm -f "$SERVE_LOG"
}

net_smoke

echo "==> stats-plane smoke (undersized server, shed load, strict Prometheus scrape)"
SERVE_LOG="$(mktemp)"
"$ACCTEE_BIN" serve --listen 127.0.0.1:0 --workers 1 --queue 1 --tenant-inflight 1 \
    >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^listening on //p' "$SERVE_LOG")"
    if [ -n "$ADDR" ]; then break; fi
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "stats server never reported its address"; kill "$SERVE_PID"; exit 1; }
# One verified invoke, then bursts of concurrent invokes until the
# 1-worker/1-queue server has shed at least one connection (bounded
# retries: each burst of 6 against capacity 2 sheds with overwhelming
# probability, so this loop normally exits on the first pass).
"$ACCTEE_BIN" invoke examples/demo.wat --connect "$ADDR" --invoke fib --arg 10 >/dev/null
PROM="$(mktemp)"
SHED=0
for _ in $(seq 1 20); do
    BURST_PIDS=""
    for _ in $(seq 1 6); do
        "$ACCTEE_BIN" invoke examples/demo.wat --connect "$ADDR" --invoke fib --arg 16 \
            >/dev/null 2>&1 &
        BURST_PIDS="$BURST_PIDS $!"
    done
    for pid in $BURST_PIDS; do wait "$pid" || true; done
    # `stats --prom` strict-parses the exposition text before relaying
    # it, so a successful scrape is also a parser round-trip check.
    "$ACCTEE_BIN" stats --prom --connect "$ADDR" >"$PROM"
    SHED="$(sed -n 's/^acctee_net_shed_total{reason="queue"} //p' "$PROM")"
    if [ "${SHED:-0}" -gt 0 ]; then break; fi
done
[ "${SHED:-0}" -gt 0 ] || { echo "overloaded server never shed"; kill "$SERVE_PID"; exit 1; }
REQS="$(sed -n 's/^acctee_net_requests_total{kind="invoke"} //p' "$PROM")"
LATS="$(sed -n 's/^acctee_net_request_latency_seconds_count{kind="invoke"} //p' "$PROM")"
[ "${REQS:-0}" -gt 0 ] || { echo "no invoke requests in scrape"; kill "$SERVE_PID"; exit 1; }
[ "${LATS:-0}" -gt 0 ] || { echo "empty invoke latency histogram"; kill "$SERVE_PID"; exit 1; }
"$ACCTEE_BIN" shutdown --connect "$ADDR"
wait "$SERVE_PID"
rm -f "$SERVE_LOG" "$PROM"

echo "==> durable kill-and-restart smoke (--state-dir, kill -9, fetch-log, settle)"
STATE_DIR="$(mktemp -d)"
SERVE_LOG="$(mktemp)"
"$ACCTEE_BIN" serve --listen 127.0.0.1:0 --state-dir "$STATE_DIR" --fsync always \
    >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^listening on //p' "$SERVE_LOG")"
    if [ -n "$ADDR" ]; then break; fi
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "durable server never reported its address"; kill "$SERVE_PID"; exit 1; }
OUT="$("$ACCTEE_BIN" invoke examples/demo.wat --connect "$ADDR" --invoke fib --arg 20)" \
    && grep -q "verified" <<<"$OUT" \
    || { echo "durable invoke failed"; kill "$SERVE_PID"; exit 1; }
SESSION="$(sed -n 's/^  session id: *//p' <<<"$OUT")"
[ -n "$SESSION" ] || { echo "invoke output carried no session id"; kill "$SERVE_PID"; exit 1; }
# kill -9: no drain, no checkpoint. With --fsync always the record
# must already be on disk.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
: >"$SERVE_LOG"
"$ACCTEE_BIN" serve --listen 127.0.0.1:0 --state-dir "$STATE_DIR" --fsync always \
    --log-level info >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^listening on //p' "$SERVE_LOG")"
    if [ -n "$ADDR" ]; then break; fi
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "restarted server never reported its address"; kill "$SERVE_PID"; exit 1; }
# The one pre-crash deployment came back from the deploy log.
grep 'msg="durable state recovered"' "$SERVE_LOG" | grep -q ' deployments=1 ' \
    || { echo "restarted server did not recover exactly 1 deployment"; kill "$SERVE_PID"; exit 1; }
# Rehydration is lazy: the restart instruments no logged module until
# an invoke needs it.
PROM="$(mktemp)"
"$ACCTEE_BIN" stats --prom --connect "$ADDR" >"$PROM"
grep -qx 'acctee_cache_misses_total 0' "$PROM" \
    || { echo "restart instrumented a logged module before any invoke"; kill "$SERVE_PID"; exit 1; }
rm -f "$PROM"
# The pre-crash record must come back over the wire, signature intact,
OUT="$("$ACCTEE_BIN" fetch-log --connect "$ADDR" --session "$SESSION")" \
    && grep -q "verified" <<<"$OUT" \
    || { echo "pre-crash log not recovered after kill -9"; kill "$SERVE_PID"; exit 1; }
# and new sessions must never reuse pre-crash ids.
OUT="$("$ACCTEE_BIN" invoke examples/demo.wat --connect "$ADDR" --invoke fib --arg 10)" \
    || { echo "post-restart invoke failed"; kill "$SERVE_PID"; exit 1; }
SESSION2="$(sed -n 's/^  session id: *//p' <<<"$OUT")"
[ "${SESSION2:-0}" -gt "$SESSION" ] \
    || { echo "session id $SESSION2 not above pre-crash $SESSION"; kill "$SERVE_PID"; exit 1; }
# Group commit: a pipelined window's usage records share WAL fsyncs,
# so the server reports fewer commits than committed records.
"$ACCTEE_BIN" invoke examples/demo.wat --connect "$ADDR" --invoke fib --arg 10 --repeat 16 \
    >/dev/null || { echo "pipelined durable invoke failed"; kill "$SERVE_PID"; exit 1; }
PROM="$(mktemp)"
"$ACCTEE_BIN" stats --prom --connect "$ADDR" >"$PROM"
COMMITS="$(sed -n 's/^acctee_wal_commits_total //p' "$PROM")"
RECORDS="$(sed -n 's/^acctee_wal_committed_records_total //p' "$PROM")"
rm -f "$PROM"
[ "${COMMITS:-0}" -gt 0 ] && [ "$COMMITS" -lt "${RECORDS:-0}" ] \
    || { echo "no group commit: $COMMITS WAL commits for $RECORDS records"; kill "$SERVE_PID"; exit 1; }
"$ACCTEE_BIN" shutdown --connect "$ADDR"
wait "$SERVE_PID"
# Offline settlement over the surviving state dir: every record
# re-verified, signed statements equal to the summed invoices.
"$ACCTEE_BIN" settle --state-dir "$STATE_DIR" | grep -q "settlement verified" \
    || { echo "offline settlement failed"; exit 1; }
rm -rf "$STATE_DIR" "$SERVE_LOG"

echo "==> fleet loopback smoke (3 workers, 1 injected cheater, must detect)"
FLEET_DIR="$(mktemp -d)"
COORD_LOG="$(mktemp)"
"$ACCTEE_BIN" fleet coordinate --listen 127.0.0.1:0 --state-dir "$FLEET_DIR" \
    --units 12 --unit-count 10 --redundancy 0.25 --probation 1 >"$COORD_LOG" 2>&1 &
COORD_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^listening on //p' "$COORD_LOG")"
    if [ -n "$ADDR" ]; then break; fi
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "coordinator never reported its address"; kill "$COORD_PID"; exit 1; }
# The cheater joins first: a campaign this small can otherwise finish
# before it holds any work. Honest workers start once it is listed.
"$ACCTEE_BIN" fleet work --connect "$ADDR" --name smoke-cheat --behavior flip >/dev/null 2>&1 &
W2=$!
JOINED=""
for _ in $(seq 1 50); do
    if "$ACCTEE_BIN" fleet status --connect "$ADDR" | grep -q "^smoke-cheat "; then
        JOINED=1
        break
    fi
    sleep 0.1
done
[ -n "$JOINED" ] || { echo "cheater never joined"; kill "$COORD_PID" "$W2" 2>/dev/null; exit 1; }
"$ACCTEE_BIN" fleet work --connect "$ADDR" --name smoke-h0 --behavior honest >/dev/null 2>&1 &
W0=$!
"$ACCTEE_BIN" fleet work --connect "$ADDR" --name smoke-h1 --behavior honest >/dev/null 2>&1 &
W1=$!
"$ACCTEE_BIN" fleet status --connect "$ADDR" | grep -q "campaign:" \
    || { echo "fleet status probe failed"; kill "$COORD_PID" "$W0" "$W1" "$W2" 2>/dev/null; exit 1; }
wait "$COORD_PID"   # exits 0 only after the campaign completes and every statement verifies
grep -q "campaign complete" "$COORD_LOG" || { echo "campaign never completed"; exit 1; }
grep -q "quarantined: smoke-cheat" "$COORD_LOG" \
    || { echo "injected cheater was not detected"; cat "$COORD_LOG"; exit 1; }
grep -q "enclave-signed, verified" "$COORD_LOG" \
    || { echo "no verified reimbursement statements"; cat "$COORD_LOG"; exit 1; }
# Workers exit on their next pull; don't let a straggler sit out its
# reconnect budget against the now-gone coordinator.
sleep 1
kill "$W0" "$W1" "$W2" 2>/dev/null || true
wait "$W0" "$W1" "$W2" 2>/dev/null || true
rm -rf "$FLEET_DIR" "$COORD_LOG"

# The volunteer example runs the fleet in one process at the default
# spot-check rate: the counter-inflating node must be paid nothing.
echo "==> volunteer campaign example (in-process fleet, forger paid 0)"
OUT="$(cargo run --offline --release -q -p acctee-integration --example volunteer_campaign)" \
    || { echo "volunteer_campaign example failed"; exit 1; }
grep -Eq '^statement inflate +0 credited +0 wic +0 nano paid' <<<"$OUT" \
    || { echo "volunteer_campaign paid the forger"; printf '%s\n' "$OUT"; exit 1; }

# The second campaign runs without redundancy or probation, so every
# unit is executed and credited exactly once: the statements' credited
# column must sum to the unit count across a SIGKILL of the
# coordinator mid-campaign and a restart on the same journal.
echo "==> fleet coordinator SIGKILL resume smoke (no unit lost, none double-credited)"
FLEET_DIR="$(mktemp -d)"
COORD_LOG="$(mktemp)"
UNITS=32
start_coordinator() {
    : >"$COORD_LOG"
    "$ACCTEE_BIN" fleet coordinate --listen 127.0.0.1:0 --state-dir "$FLEET_DIR" \
        --units "$UNITS" --unit-count 128 --redundancy 0 --probation 0 >"$COORD_LOG" 2>&1 &
    COORD_PID=$!
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR="$(sed -n 's/^listening on //p' "$COORD_LOG")"
        if [ -n "$ADDR" ]; then break; fi
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "coordinator never reported its address"; kill "$COORD_PID"; exit 1; }
}
start_workers() {
    "$ACCTEE_BIN" fleet work --connect "$ADDR" --name resume-h0 --behavior honest >/dev/null 2>&1 &
    W0=$!
    "$ACCTEE_BIN" fleet work --connect "$ADDR" --name resume-h1 --behavior honest >/dev/null 2>&1 &
    W1=$!
}
stop_workers() {
    kill "$W0" "$W1" 2>/dev/null || true
    wait "$W0" "$W1" 2>/dev/null || true
}
start_coordinator
start_workers
# Kill once a progress line shows at least a quarter of the units done.
KILLED=""
for _ in $(seq 1 1200); do
    DONE="$(sed -n 's/^progress: \([0-9]*\)\/.*/\1/p' "$COORD_LOG" | tail -n 1)"
    if [ "${DONE:-0}" -ge $((UNITS / 4)) ]; then
        kill -9 "$COORD_PID"
        KILLED="$DONE"
        break
    fi
    if grep -q "campaign complete" "$COORD_LOG"; then break; fi
    sleep 0.1
done
wait "$COORD_PID" 2>/dev/null || true
stop_workers
[ -n "$KILLED" ] && [ "$KILLED" -lt "$UNITS" ] \
    || { echo "coordinator not killed mid-campaign (progress: ${DONE:-none}/$UNITS)"; cat "$COORD_LOG"; exit 1; }
start_coordinator
# Before any worker reconnects, the journal replay alone must have
# restored every unit completed before the kill.
RESUMED="$("$ACCTEE_BIN" fleet status --connect "$ADDR" | sed -n 's/^campaign: \([0-9]*\)\/.*/\1/p')"
[ "${RESUMED:-0}" -ge "$KILLED" ] \
    || { echo "restart resumed ${RESUMED:-no} units, $KILLED were done at the kill"; kill "$COORD_PID"; exit 1; }
start_workers
wait "$COORD_PID" || { echo "resumed coordinator failed"; cat "$COORD_LOG"; stop_workers; exit 1; }
sleep 1
stop_workers
grep -q "campaign complete: $UNITS/$UNITS units" "$COORD_LOG" \
    || { echo "resumed campaign did not complete $UNITS/$UNITS"; cat "$COORD_LOG"; exit 1; }
CREDITED="$(awk '/^statement / && /enclave-signed, verified/ { n += $3 } END { print n + 0 }' "$COORD_LOG")"
[ "$CREDITED" -eq "$UNITS" ] \
    || { echo "statements credit $CREDITED units, not $UNITS (lost or double-credited)"; cat "$COORD_LOG"; exit 1; }
rm -rf "$FLEET_DIR" "$COORD_LOG"

# The e2e suites must stay green when they do not have the CPU to
# themselves: one busy loop per core beside them, five runs each.
echo "==> e2e suites under a CPU hog (net_e2e, fleet_e2e, durable_e2e, scenarios; 5 runs each)"
HOGS=""
stop_hogs() {
    if [ -n "$HOGS" ]; then
        # shellcheck disable=SC2086
        kill $HOGS 2>/dev/null || true
        # shellcheck disable=SC2086
        wait $HOGS 2>/dev/null || true
        HOGS=""
    fi
}
trap stop_hogs EXIT
cargo test --offline -q -p acctee-integration --no-run 2>/dev/null
for _ in $(seq 1 "$(nproc)"); do
    yes >/dev/null &
    HOGS="$HOGS $!"
done
SUITE_LOG="$(mktemp)"
for suite in net_e2e fleet_e2e durable_e2e scenarios; do
    for run in 1 2 3 4 5; do
        cargo test --offline -q -p acctee-integration --test "$suite" >"$SUITE_LOG" 2>&1 \
            || { echo "$suite red on run $run under load"; cat "$SUITE_LOG"; exit 1; }
    done
done
rm -f "$SUITE_LOG"
stop_hogs
trap - EXIT

echo "==> all green"
