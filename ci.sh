#!/bin/sh
# Full offline CI gate: formatting, lints, release build, tests.
# The test suite runs twice — pinned to one worker and at the default
# thread count — because the execution engine's contract is that results
# are bit-identical for any parallelism; a test that passes in one mode
# and fails in the other IS the divergence we're gating on.
# Benches run in quick mode so the whole script stays under a few minutes.
set -eux

cargo fmt --all --check
# Clippy across the whole workspace (all targets, warnings are errors,
# and `or_fun_call` on top of the defaults: an error string or default
# built eagerly inside `ok_or(..)`/`map_or(..)` costs an allocation on
# every success, which the persisted-state parsers pay per field),
# plus the shadow (model-checker) configuration of hi-exec, which
# compiles different code behind the sync facade. Skipped with a notice
# if the toolchain lacks the clippy component (e.g. a minimal offline
# install).
if cargo clippy --version > /dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings -W clippy::or_fun_call
    cargo clippy -p hi-exec --features shadow --all-targets -- -D warnings
else
    echo "NOTICE: cargo clippy unavailable in this toolchain; skipping lint gate" >&2
fi
# Rustdoc, warnings as errors: a deleted item or a renamed path leaves
# no dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
cargo build --release
HI_EXEC_THREADS=1 cargo test -q
cargo test -q
# The simulator's and the MILP solver's tests again in release mode — the
# build the benchmark measures — including the golden outcome and
# budget-trip bits and the dual simplex reoptimization properties.
cargo test --release -q -p hi-des -p hi-net -p hi-milp
# The golden MILP outcomes on the optimized build too: its floating-point
# code generation is the one whose objective bits and pivot counts the
# benchmark's runs depend on.
cargo test --release -q -p hi-core --test golden_milp
# The benchmark's package builds against the workspace's public API, and
# its `robust` workload at seed 1 checks every answer against
# `perfbench/reference/` byte for byte: an API break or a moved output
# bit fails here, not first in a benchmark run. perfbench refuses
# `--seconds 0`; a tiny budget runs its minimum of three repetitions.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload robust --seed 1 --seconds 0.001 --trace 0 2> /dev/null \
    | tail -n 1 | grep -q '"correct": true'
# `ladder` and `fleet_warm` run traced: a traced repetition must do the
# same work as a plain one, so a `milp.pivots` count that differs between
# the two fails here rather than in a benchmark run.
for workload in ladder fleet_warm; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0.001 --trace 1 2> /dev/null \
        | tail -n 1 | grep -q '"correct": true'
done

# Concurrency-verification gates. The hi-check mutant self-test (also in
# the workspace run above, kept explicit here as the named gate): every
# seeded protocol bug — weakened ordering, missing notify, lock-order
# inversion, leaked guard — must be caught with a schedule that replays
# to the identical violation, and every unmutated protocol must sweep
# clean. Then the real hi-exec pool/cache/cancel code is model-checked
# through the shadow facade.
cargo test -q -p hi-check
cargo test -q -p hi-exec --features shadow

# Cross-thread CLI divergence gate: the same exploration at 1 and 8
# workers must print byte-identical output.
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 1 > /tmp/hi_ci_t1.txt
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 > /tmp/hi_ci_t8.txt
diff /tmp/hi_ci_t1.txt /tmp/hi_ci_t8.txt

# Robust (fault-injected) exploration must be just as thread-invariant:
# same suite, same floor, 1 vs 8 workers, byte-identical stdout.
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 1 \
    --faults scenarios/demo.suite --robust worst > /tmp/hi_ci_rob_t1.txt
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --robust worst > /tmp/hi_ci_rob_t8.txt
diff /tmp/hi_ci_rob_t1.txt /tmp/hi_ci_rob_t8.txt

# ...and must pick a more conservative optimum than the nominal run on
# the demo suite (the whole point of Γ-robust feasibility).
! diff -q /tmp/hi_ci_t1.txt /tmp/hi_ci_rob_t1.txt > /dev/null

# Γ-robust engine gates. `--engine robust-milp` prices the fault suite
# into the formulation and simulates only each level's witness, so on
# the demo suite it must stay thread-invariant, print the
# price-of-robustness line, differ from the verification-based
# `--robust worst` run, and meet the same worst-case floor with at
# least 10x fewer simulations.
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 1 \
    --faults scenarios/demo.suite --robust worst > /tmp/hi_ci_rw.txt 2> /dev/null
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 1 \
    --faults scenarios/demo.suite --engine robust-milp --gamma 2 \
    > /tmp/hi_ci_rm_t1.txt 2> /dev/null
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --engine robust-milp --gamma 2 \
    > /tmp/hi_ci_rm_t8.txt 2> /dev/null
diff /tmp/hi_ci_rm_t1.txt /tmp/hi_ci_rm_t8.txt
grep -q '^price of robustness : ' /tmp/hi_ci_rm_t1.txt
! diff -q /tmp/hi_ci_rw.txt /tmp/hi_ci_rm_t1.txt > /dev/null
WORST_SIMS=$(sed -n 's/^effort *: \([0-9]*\) simulations.*/\1/p' /tmp/hi_ci_rw.txt)
MILP_SIMS=$(sed -n 's/^effort *: \([0-9]*\) simulations.*/\1/p' /tmp/hi_ci_rm_t1.txt)
[ $((MILP_SIMS * 10)) -le "$WORST_SIMS" ]

# The ILP restriction heuristic must spend strictly fewer simulations
# than `--robust worst` and land within 5% (measured worst-case power of
# the accepted design) of the exact robust MILP.
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --engine ilp-heuristic --gamma 2 \
    > /tmp/hi_ci_ih.txt 2> /dev/null
HEUR_SIMS=$(sed -n 's/^effort *: \([0-9]*\) simulations.*/\1/p' /tmp/hi_ci_ih.txt)
[ "$HEUR_SIMS" -lt "$WORST_SIMS" ]
MILP_MW=$(sed -n 's/^worst power *: \([0-9.]*\) mW$/\1/p' /tmp/hi_ci_rm_t1.txt)
HEUR_MW=$(sed -n 's/^worst power *: \([0-9.]*\) mW$/\1/p' /tmp/hi_ci_ih.txt)
awk -v h="$HEUR_MW" -v m="$MILP_MW" 'BEGIN { exit !(h <= m * 1.05) }'

# `--gamma 0` degenerates to the nominal algorithm1 engine byte for
# byte (a stderr note announces the degeneration; stdout is identical
# to the engine-less run on the same suite).
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --engine robust-milp --gamma 0 \
    > /tmp/hi_ci_g0.txt 2> /tmp/hi_ci_g0.err
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite > /tmp/hi_ci_nomsuite.txt 2> /dev/null
diff /tmp/hi_ci_g0.txt /tmp/hi_ci_nomsuite.txt
grep -q degenerate /tmp/hi_ci_g0.err

# HL048 bounce: a gamma above the protected-link count is refused with
# exit 2 before any simulation runs.
RC=0
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --engine robust-milp --gamma 100 \
    > /dev/null 2> /tmp/hi_ci_hl048.err || RC=$?
[ "$RC" -eq 2 ]
grep -q HL048 /tmp/hi_ci_hl048.err

# A robust run interrupted by --budget and resumed must replay the cut
# ladder to byte-identical stdout — and resuming that robust checkpoint
# with a different engine must be refused with exit 2, never silently
# restarted under the wrong formulation.
rm -f /tmp/hi_ci_rob_cp.ck
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --engine robust-milp --gamma 2 \
    --budget 30 --checkpoint /tmp/hi_ci_rob_cp.ck \
    > /tmp/hi_ci_rob_partial.txt 2> /dev/null
grep -q BudgetExhausted /tmp/hi_ci_rob_partial.txt
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --engine robust-milp --gamma 2 \
    --checkpoint /tmp/hi_ci_rob_cp.ck --resume \
    > /tmp/hi_ci_rob_resumed.txt 2> /dev/null
diff /tmp/hi_ci_rm_t8.txt /tmp/hi_ci_rob_resumed.txt
RC=0
target/release/hi-opt explore --pdr-min 0.7 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite \
    --checkpoint /tmp/hi_ci_rob_cp.ck --resume \
    > /dev/null 2> /tmp/hi_ci_engine_mismatch.err || RC=$?
[ "$RC" -eq 2 ]
grep -q 'recorded by engine' /tmp/hi_ci_engine_mismatch.err

# Graceful-degradation gate: a run interrupted by --budget and resumed
# from its --checkpoint must print byte-identical stdout to an
# uninterrupted run of the same exploration.
rm -f /tmp/hi_ci_cp.txt
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --budget 20 --checkpoint /tmp/hi_ci_cp.txt > /tmp/hi_ci_partial.txt
grep -q BudgetExhausted /tmp/hi_ci_partial.txt
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --checkpoint /tmp/hi_ci_cp.txt --resume > /tmp/hi_ci_resumed.txt
diff /tmp/hi_ci_t8.txt /tmp/hi_ci_resumed.txt

# Chaos-soak gate: deterministic engine-fault injection (worker panics,
# spurious transients, cache drops keyed by (point, attempt)) must be
# thread-count invariant — byte-identical stdout at 1 and 8 workers —
# must actually observe injected failures, and must still elect the
# nominal optimum (retries ride out the transients).
CHAOS="seed=1,panic=13,transient=3,drop=8"
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 1 \
    --chaos "$CHAOS" > /tmp/hi_ci_chaos_t1.txt 2> /dev/null
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --chaos "$CHAOS" > /tmp/hi_ci_chaos_t8.txt 2> /dev/null
diff /tmp/hi_ci_chaos_t1.txt /tmp/hi_ci_chaos_t8.txt
grep -q "failed evaluation" /tmp/hi_ci_chaos_t1.txt
# The design block (everything above the eval-errors/effort lines) must
# match the chaos-free run exactly.
head -5 /tmp/hi_ci_t1.txt > /tmp/hi_ci_design_nominal.txt
head -5 /tmp/hi_ci_chaos_t1.txt > /tmp/hi_ci_design_chaos.txt
diff /tmp/hi_ci_design_nominal.txt /tmp/hi_ci_design_chaos.txt

# SIGKILL crash gate: a paper-protocol run auto-checkpointing every
# iteration is killed -9 as soon as the first auto-checkpoint lands,
# then resumed; the resumed run's stdout must be byte-identical to a
# straight-through run. (Checkpoint traffic is stderr-only, so the
# reference run needs no checkpoint flags.)
rm -f /tmp/hi_ci_kill.ck /tmp/hi_ci_kill.ck.prev /tmp/hi_ci_kill.ck.tmp
target/release/hi-opt explore --pdr-min 0.9 --tsim 600 --runs 3 --threads 8 \
    > /tmp/hi_ci_straight.txt
target/release/hi-opt explore --pdr-min 0.9 --tsim 600 --runs 3 --threads 8 \
    --checkpoint /tmp/hi_ci_kill.ck --checkpoint-every 1 \
    > /tmp/hi_ci_killed.txt 2> /dev/null &
VICTIM=$!
while [ ! -f /tmp/hi_ci_kill.ck ]; do sleep 0.05; done
kill -9 "$VICTIM"
RC=0; wait "$VICTIM" || RC=$?
[ "$RC" -eq 137 ]
target/release/hi-opt explore --pdr-min 0.9 --tsim 600 --runs 3 --threads 8 \
    --checkpoint /tmp/hi_ci_kill.ck --resume \
    > /tmp/hi_ci_recovered.txt 2> /tmp/hi_ci_recovered.err
diff /tmp/hi_ci_straight.txt /tmp/hi_ci_recovered.txt

# A torn primary checkpoint with an intact .prev rotation must recover
# (with a diagnostic on stderr), and a checkpoint corrupted beyond both
# copies must be refused with exit 4 — never silently resumed.
cp /tmp/hi_ci_kill.ck /tmp/hi_ci_torn.ck.prev
head -c 40 /tmp/hi_ci_kill.ck > /tmp/hi_ci_torn.ck
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --checkpoint /tmp/hi_ci_torn.ck --resume \
    > /dev/null 2> /tmp/hi_ci_torn.err
grep -q "recovered from" /tmp/hi_ci_torn.err
printf 'hi-opt explore checkpoint v2\ngarbage\n' > /tmp/hi_ci_bad.ck
printf 'garbage\n' > /tmp/hi_ci_bad.ck.prev
RC=0
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --checkpoint /tmp/hi_ci_bad.ck --resume \
    > /dev/null 2> /tmp/hi_ci_bad.err || RC=$?
[ "$RC" -eq 4 ]
grep -q "crc32 trailer" /tmp/hi_ci_bad.err

# Observability gates (hi-trace). Tracing must never perturb the search:
# the same exploration with --trace and --metrics prints byte-identical
# stdout (all trace output goes to the file / stderr) at 1 and 8 workers.
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 1 \
    --trace /tmp/hi_ci_trace_t1.jsonl --metrics \
    > /tmp/hi_ci_traced_t1.txt 2> /dev/null
diff /tmp/hi_ci_t1.txt /tmp/hi_ci_traced_t1.txt
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --trace /tmp/hi_ci_trace_t8.jsonl --metrics \
    > /tmp/hi_ci_traced_t8.txt 2> /dev/null
diff /tmp/hi_ci_t8.txt /tmp/hi_ci_traced_t8.txt

# The JSONL stream must validate line by line, and the deterministic
# (epoch, lane) layout means the 1- and 8-worker traces differ only in
# timestamps and the self-describing "threads" span argument: after
# normalizing those two, the streams are byte-identical.
target/release/trace-check /tmp/hi_ci_trace_t1.jsonl --format jsonl
target/release/trace-check /tmp/hi_ci_trace_t8.jsonl --format jsonl
sed 's/"ts_ns":[0-9]*//; s/"threads":[0-9]*/"threads":N/' \
    /tmp/hi_ci_trace_t1.jsonl > /tmp/hi_ci_layout_t1.txt
sed 's/"ts_ns":[0-9]*//; s/"threads":[0-9]*/"threads":N/' \
    /tmp/hi_ci_trace_t8.jsonl > /tmp/hi_ci_layout_t8.txt
diff /tmp/hi_ci_layout_t1.txt /tmp/hi_ci_layout_t8.txt

# Chrome export on the fault suite must be Perfetto-loadable and contain
# spans from every instrumented layer (milp, des/net, exec, algorithm1).
target/release/hi-opt explore --pdr-min 0.9 --tsim 5 --runs 1 --threads 8 \
    --faults scenarios/demo.suite --robust worst \
    --trace /tmp/hi_ci_trace.chrome --trace-format chrome \
    > /tmp/hi_ci_traced_rob.txt 2> /dev/null
diff /tmp/hi_ci_rob_t8.txt /tmp/hi_ci_traced_rob.txt
target/release/trace-check /tmp/hi_ci_trace.chrome --format chrome
for layer in milp net exec algo1; do
    grep -q "\"name\":\"$layer\." /tmp/hi_ci_trace.chrome
done

# Overhead budget: --trace must cost < 10% wall time on the demo suite.
# Interleaved best-of-5 pairs after a warmup, so scheduler noise and
# cache warmth hit both modes alike instead of biasing one.
python3 - <<'EOF'
import subprocess, time
CMD = ["target/release/hi-opt", "explore", "--pdr-min", "0.9",
       "--tsim", "10", "--runs", "1", "--threads", "8",
       "--faults", "scenarios/demo.suite", "--robust", "worst"]
TRACE = ["--trace", "/tmp/hi_ci_overhead.jsonl", "--metrics"]
def run(extra):
    t0 = time.perf_counter()
    subprocess.run(CMD + extra, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0
run([])  # warmup
base, traced = [], []
for _ in range(5):
    base.append(run([]))
    traced.append(run(TRACE))
base, traced = min(base), min(traced)
overhead = (traced - base) / base
print(f"trace overhead: {overhead:+.1%} (base {base:.3f}s, traced {traced:.3f}s)")
assert overhead < 0.10, "tracing overhead exceeds the 10% budget"
EOF

# Fleet-service gates (hi-serve). A daemon is started on a loopback
# port; the wire protocol is driven end-to-end by hi-serve-client.
# First: cross-user dedup. Two identical profiles and one with different
# physics — the duplicate's result block must report zero simulations
# (it runs entirely from the first user's cache) and the daemon's fleet
# counters must agree.
rm -rf /tmp/hi_ci_serve
printf 'profile alice\ntsim 5\nruns 1\npdrmin 0.9\n' > /tmp/hi_ci_serve_a.profile
printf 'profile alice-twin\ntsim 5\nruns 1\npdrmin 0.9\n' > /tmp/hi_ci_serve_b.profile
printf 'profile dave\ntsim 5\nruns 1\npdrmin 0.9\ngeometry 1.15\n' > /tmp/hi_ci_serve_c.profile
target/release/hi-opt serve --state /tmp/hi_ci_serve --listen 127.0.0.1:0 \
    --threads 8 2> /tmp/hi_ci_serve.err &
DAEMON=$!
while [ ! -f /tmp/hi_ci_serve/addr ]; do sleep 0.05; done
target/release/hi-serve-client /tmp/hi_ci_serve/addr run /tmp/hi_ci_serve_a.profile \
    > /tmp/hi_ci_serve_r1.txt 2> /dev/null
target/release/hi-serve-client /tmp/hi_ci_serve/addr run /tmp/hi_ci_serve_b.profile \
    > /tmp/hi_ci_serve_r2.txt 2> /dev/null
target/release/hi-serve-client /tmp/hi_ci_serve/addr run /tmp/hi_ci_serve_c.profile \
    > /tmp/hi_ci_serve_r3.txt 2> /dev/null
grep -q '^status feasible$' /tmp/hi_ci_serve_r1.txt
grep -q '^simulations 0$' /tmp/hi_ci_serve_r2.txt      # the twin paid nothing
! grep -q '^simulations 0$' /tmp/hi_ci_serve_r3.txt    # different physics paid
target/release/hi-serve-client /tmp/hi_ci_serve/addr stats > /tmp/hi_ci_serve_stats.txt
grep '^serve.fleet.cache_hits ' /tmp/hi_ci_serve_stats.txt | awk '{exit !($2 > 0)}'
grep -q '^serve.jobs.completed 3$' /tmp/hi_ci_serve_stats.txt
# A malformed submission must bounce with ERR (client exit 4), not kill
# the daemon.
printf 'profile broken\npdrmin 2\n' > /tmp/hi_ci_serve_bad.profile
RC=0
target/release/hi-serve-client /tmp/hi_ci_serve/addr submit /tmp/hi_ci_serve_bad.profile \
    2> /tmp/hi_ci_serve_bad.err || RC=$?
[ "$RC" -eq 4 ]
grep -q HL042 /tmp/hi_ci_serve_bad.err
# So must a robust profile whose Gamma exceeds the suite's protected
# links (HL048), which `hi-opt explore` refuses with exit 2 above.
printf 'profile greedy\ntsim 5\nruns 1\nengine robust-milp\ngamma 100\nfaults scenarios/demo.suite worst\n' \
    > /tmp/hi_ci_serve_hl048.profile
RC=0
target/release/hi-serve-client /tmp/hi_ci_serve/addr submit /tmp/hi_ci_serve_hl048.profile \
    2> /tmp/hi_ci_serve_hl048.err || RC=$?
[ "$RC" -eq 4 ]
grep -q HL048 /tmp/hi_ci_serve_hl048.err
# The three-user fleet populated one shared Pareto archive: the twin's
# FRONT query answers from alice's stream, byte-identically.
target/release/hi-serve-client /tmp/hi_ci_serve/addr front 1 > /tmp/hi_ci_serve_f1.txt
target/release/hi-serve-client /tmp/hi_ci_serve/addr front 2 > /tmp/hi_ci_serve_f2.txt
grep -q '^point ' /tmp/hi_ci_serve_f1.txt
diff /tmp/hi_ci_serve_f1.txt /tmp/hi_ci_serve_f2.txt
target/release/hi-serve-client /tmp/hi_ci_serve/addr shutdown > /dev/null
wait "$DAEMON"

# Second: multi-job crash recovery. A daemon running a two-job fleet is
# SIGKILLed as soon as job 1's first auto-checkpoint lands, restarted on
# the same state dir, and must finish BOTH jobs to results
# byte-identical to a straight-through run of the same fleet in a fresh
# daemon.
rm -rf /tmp/hi_ci_serve_kill /tmp/hi_ci_serve_ref
rm -f /tmp/hi_ci_serve_resumed.txt /tmp/hi_ci_serve_straight.txt
printf 'profile crashdummy\ntsim 600\nruns 3\npdrmin 0.9\nprofile crashmate\ntsim 600\nruns 3\npdrmin 0.9\ngeometry 1.15\n' \
    > /tmp/hi_ci_serve_kill.profile
target/release/hi-opt serve --state /tmp/hi_ci_serve_kill --listen 127.0.0.1:0 \
    --threads 8 2> /dev/null &
VICTIM=$!
while [ ! -f /tmp/hi_ci_serve_kill/addr ]; do sleep 0.05; done
target/release/hi-serve-client /tmp/hi_ci_serve_kill/addr submit /tmp/hi_ci_serve_kill.profile \
    > /dev/null
while [ ! -f /tmp/hi_ci_serve_kill/job-1.ck ]; do sleep 0.05; done
kill -9 "$VICTIM"
RC=0; wait "$VICTIM" || RC=$?
[ "$RC" -eq 137 ]
rm -f /tmp/hi_ci_serve_kill/addr
target/release/hi-opt serve --state /tmp/hi_ci_serve_kill --listen 127.0.0.1:0 \
    --threads 8 2> /tmp/hi_ci_serve_kill.err &
PHOENIX=$!
while [ ! -f /tmp/hi_ci_serve_kill/addr ]; do sleep 0.05; done
for J in 1 2; do
    target/release/hi-serve-client /tmp/hi_ci_serve_kill/addr wait "$J" > /dev/null 2>&1
    target/release/hi-serve-client /tmp/hi_ci_serve_kill/addr result "$J" \
        >> /tmp/hi_ci_serve_resumed.txt
done
grep -q "resuming" /tmp/hi_ci_serve_kill.err
# The archive survived the SIGKILL mid-insert: FRONT streams rows and
# the restart repaired — never quarantined — the front segments.
target/release/hi-serve-client /tmp/hi_ci_serve_kill/addr front 1 > /tmp/hi_ci_front_kill.txt
grep -q '^point ' /tmp/hi_ci_front_kill.txt
[ -z "$(find /tmp/hi_ci_serve_kill/cache -name '*.quarantine' 2>/dev/null)" ]
target/release/hi-serve-client /tmp/hi_ci_serve_kill/addr shutdown > /dev/null
wait "$PHOENIX"
target/release/hi-opt serve --state /tmp/hi_ci_serve_ref --listen 127.0.0.1:0 \
    --threads 8 2> /dev/null &
REF=$!
while [ ! -f /tmp/hi_ci_serve_ref/addr ]; do sleep 0.05; done
target/release/hi-serve-client /tmp/hi_ci_serve_ref/addr run /tmp/hi_ci_serve_kill.profile \
    > /dev/null 2>&1
for J in 1 2; do
    target/release/hi-serve-client /tmp/hi_ci_serve_ref/addr result "$J" \
        >> /tmp/hi_ci_serve_straight.txt
done
target/release/hi-serve-client /tmp/hi_ci_serve_ref/addr shutdown > /dev/null
wait "$REF"
diff /tmp/hi_ci_serve_straight.txt /tmp/hi_ci_serve_resumed.txt

# Third: durable-cache warm restart. The phoenix daemon above drained
# and flushed its evaluation cache to segment files on SHUTDOWN; a
# fresh daemon on the same state dir must re-serve the same fleet with
# ZERO fresh simulations (an explicit --token forces new jobs rather
# than an idempotent replay of the old ones).
rm -f /tmp/hi_ci_serve_kill/addr
target/release/hi-opt serve --state /tmp/hi_ci_serve_kill --listen 127.0.0.1:0 \
    --threads 8 2> /dev/null &
WARM=$!
while [ ! -f /tmp/hi_ci_serve_kill/addr ]; do sleep 0.05; done
target/release/hi-serve-client --token warm-pass /tmp/hi_ci_serve_kill/addr \
    run /tmp/hi_ci_serve_kill.profile > /tmp/hi_ci_serve_warm.txt 2> /dev/null
SIMS=$(grep -c '^simulations 0$' /tmp/hi_ci_serve_warm.txt)
[ "$SIMS" -eq 2 ]    # both warm jobs replayed entirely from segments
# Idempotency: the same SUBMIT with the same token must return the same
# job ids, not enqueue duplicates.
target/release/hi-serve-client --token idem-1 /tmp/hi_ci_serve_kill/addr \
    submit /tmp/hi_ci_serve_kill.profile > /tmp/hi_ci_serve_idem1.txt
target/release/hi-serve-client --token idem-1 /tmp/hi_ci_serve_kill/addr \
    submit /tmp/hi_ci_serve_kill.profile > /tmp/hi_ci_serve_idem2.txt
diff /tmp/hi_ci_serve_idem1.txt /tmp/hi_ci_serve_idem2.txt
grep -q '^job ' /tmp/hi_ci_serve_idem1.txt
target/release/hi-serve-client /tmp/hi_ci_serve_kill/addr shutdown > /dev/null
wait "$WARM"

# Fourth: chaos soak. A daemon with deterministic segment-drop and
# torn-write injection must still converge to the nominal answers — the
# cache may lose entries (repaid with simulations), but never serves a
# wrong one. The torn tails it leaves behind must be repaired on the
# next start, not quarantined.
rm -rf /tmp/hi_ci_serve_chaos
target/release/hi-opt serve --state /tmp/hi_ci_serve_chaos --listen 127.0.0.1:0 \
    --threads 8 --chaos "seed=1,segdrop=2,torn=2" 2> /dev/null &
GREMLIN=$!
while [ ! -f /tmp/hi_ci_serve_chaos/addr ]; do sleep 0.05; done
target/release/hi-serve-client /tmp/hi_ci_serve_chaos/addr run /tmp/hi_ci_serve_kill.profile \
    > /tmp/hi_ci_serve_chaos1.txt 2> /dev/null
target/release/hi-serve-client /tmp/hi_ci_serve_chaos/addr shutdown > /dev/null
wait "$GREMLIN"
rm -f /tmp/hi_ci_serve_chaos/addr
target/release/hi-opt serve --state /tmp/hi_ci_serve_chaos --listen 127.0.0.1:0 \
    --threads 8 --chaos "seed=2,segdrop=2,torn=2" 2> /tmp/hi_ci_serve_chaos.err &
GREMLIN=$!
while [ ! -f /tmp/hi_ci_serve_chaos/addr ]; do sleep 0.05; done
target/release/hi-serve-client --token chaos-2 /tmp/hi_ci_serve_chaos/addr \
    run /tmp/hi_ci_serve_kill.profile > /tmp/hi_ci_serve_chaos2.txt 2> /dev/null
target/release/hi-serve-client /tmp/hi_ci_serve_chaos/addr shutdown > /dev/null
wait "$GREMLIN"
! grep -q quarantine /tmp/hi_ci_serve_chaos.err   # torn tails repair, not quarantine
# Design answers under chaos match the nominal straight-through run.
grep '^status feasible\|^design \|^pdr \|^nlt_days \|^power_mw ' /tmp/hi_ci_serve_straight.txt \
    > /tmp/hi_ci_serve_expect.txt
grep '^status feasible\|^design \|^pdr \|^nlt_days \|^power_mw ' /tmp/hi_ci_serve_chaos1.txt \
    > /tmp/hi_ci_serve_got1.txt
grep '^status feasible\|^design \|^pdr \|^nlt_days \|^power_mw ' /tmp/hi_ci_serve_chaos2.txt \
    > /tmp/hi_ci_serve_got2.txt
diff /tmp/hi_ci_serve_expect.txt /tmp/hi_ci_serve_got1.txt
diff /tmp/hi_ci_serve_expect.txt /tmp/hi_ci_serve_got2.txt

# Fifth: warm Pareto front. A daemon that simulated a fleet is shut
# down; a fresh daemon on the same state dir must answer FRONT for the
# recovered job with `simulations 0` and point rows byte-identical to
# the hot daemon's — the frontier is served from disk, never re-swept.
rm -rf /tmp/hi_ci_front
target/release/hi-opt serve --state /tmp/hi_ci_front --listen 127.0.0.1:0 \
    --threads 8 2> /dev/null &
FRONTD=$!
while [ ! -f /tmp/hi_ci_front/addr ]; do sleep 0.05; done
target/release/hi-serve-client /tmp/hi_ci_front/addr run /tmp/hi_ci_serve_kill.profile \
    > /dev/null 2>&1
target/release/hi-serve-client /tmp/hi_ci_front/addr front 1 > /tmp/hi_ci_front_hot.txt
grep -q '^point ' /tmp/hi_ci_front_hot.txt
! grep -q '^simulations 0$' /tmp/hi_ci_front_hot.txt   # the hot daemon paid
target/release/hi-serve-client /tmp/hi_ci_front/addr shutdown > /dev/null
wait "$FRONTD"
rm -f /tmp/hi_ci_front/addr
target/release/hi-opt serve --state /tmp/hi_ci_front --listen 127.0.0.1:0 \
    --threads 8 2> /dev/null &
FRONTD=$!
while [ ! -f /tmp/hi_ci_front/addr ]; do sleep 0.05; done
target/release/hi-serve-client /tmp/hi_ci_front/addr front 1 > /tmp/hi_ci_front_warm.txt
target/release/hi-serve-client /tmp/hi_ci_front/addr shutdown > /dev/null
wait "$FRONTD"
grep -q '^simulations 0$' /tmp/hi_ci_front_warm.txt    # warm: zero fresh sims
grep -v '^simulations ' /tmp/hi_ci_front_hot.txt > /tmp/hi_ci_front_hot_rows.txt
grep -v '^simulations ' /tmp/hi_ci_front_warm.txt > /tmp/hi_ci_front_warm_rows.txt
diff /tmp/hi_ci_front_hot_rows.txt /tmp/hi_ci_front_warm_rows.txt

# Sixth: failed evaluations degrade every engine alike. Under a
# 200-event budget each replication trips its logical deadline, so every
# point of an exhaustive sweep fails; the job must end `done` with the
# failures counted (as Algorithm 1 counts them) and the daemon must
# drain and exit 0 instead of dying on the first failed point.
rm -rf /tmp/hi_ci_serve_errors
printf 'SUBMIT 5\nprofile every-point-fails\ntsim 2\nruns 1\npdrmin 0.9\nengine exhaustive\nWAIT 1\nRESULT 1\nSHUTDOWN\n' \
    | target/release/hi-opt serve --state /tmp/hi_ci_serve_errors --stdio --threads 1 \
        --max-events 200 > /tmp/hi_ci_serve_errors.txt 2> /dev/null
grep -q '^OK status 1 done$' /tmp/hi_ci_serve_errors.txt
grep '^eval_errors ' /tmp/hi_ci_serve_errors.txt | awk '{ok = $2 > 0} END {exit !ok}'

# And the standalone CLI's memoized sweep: a cold `tradeoff --archive`
# persists its front; the warm rerun answers the identical front from
# the file with zero simulations.
rm -rf /tmp/hi_ci_tradearch
target/release/hi-opt tradeoff --tsim 2 --runs 1 --archive /tmp/hi_ci_tradearch \
    > /tmp/hi_ci_trade_cold.txt
! grep -q '^total unique simulations: 0$' /tmp/hi_ci_trade_cold.txt
target/release/hi-opt tradeoff --tsim 2 --runs 1 --archive /tmp/hi_ci_tradearch \
    > /tmp/hi_ci_trade_warm.txt
grep -q '^total unique simulations: 0$' /tmp/hi_ci_trade_warm.txt
sed -n '/^pareto front/,/^total/p' /tmp/hi_ci_trade_cold.txt | grep -v '^total' \
    > /tmp/hi_ci_trade_cold_front.txt
sed -n '/^pareto front/,/^total/p' /tmp/hi_ci_trade_warm.txt | grep -v '^total' \
    > /tmp/hi_ci_trade_warm_front.txt
diff /tmp/hi_ci_trade_cold_front.txt /tmp/hi_ci_trade_warm_front.txt
# A front file torn mid-entry holds only a prefix of the front: the
# rerun must treat it as a miss, re-run the sweep (nonzero simulations)
# and print the cold run's front, never the torn prefix.
FRONT_SEG=$(ls /tmp/hi_ci_tradearch/front-*.seg)
head -c $(( $(wc -c < "$FRONT_SEG") - 20 )) "$FRONT_SEG" > /tmp/hi_ci_trade_torn.seg
mv /tmp/hi_ci_trade_torn.seg "$FRONT_SEG"
target/release/hi-opt tradeoff --tsim 2 --runs 1 --archive /tmp/hi_ci_tradearch \
    > /tmp/hi_ci_trade_torn.txt
grep '^total unique simulations: ' /tmp/hi_ci_trade_torn.txt | awk '{ok = $4 > 0} END {exit !ok}'
sed -n '/^pareto front/,/^total/p' /tmp/hi_ci_trade_torn.txt | grep -v '^total' \
    > /tmp/hi_ci_trade_torn_front.txt
diff /tmp/hi_ci_trade_cold_front.txt /tmp/hi_ci_trade_torn_front.txt
# A front file copied over from other physics (another seed's) names
# that physics in its key line: also a miss, noted on stderr, re-run and
# rewritten, never printed as this physics' front.
rm -rf /tmp/hi_ci_tradearch_other
target/release/hi-opt tradeoff --tsim 2 --runs 1 --seed 7 --archive /tmp/hi_ci_tradearch_other \
    > /dev/null
cp /tmp/hi_ci_tradearch_other/front-*.seg "$FRONT_SEG"
target/release/hi-opt tradeoff --tsim 2 --runs 1 --archive /tmp/hi_ci_tradearch \
    > /tmp/hi_ci_trade_miskey.txt 2> /tmp/hi_ci_trade_miskey_err.txt
grep -q 'key line says .* but this physics is ' /tmp/hi_ci_trade_miskey_err.txt
grep '^total unique simulations: ' /tmp/hi_ci_trade_miskey.txt | awk '{ok = $4 > 0} END {exit !ok}'
sed -n '/^pareto front/,/^total/p' /tmp/hi_ci_trade_miskey.txt | grep -v '^total' \
    > /tmp/hi_ci_trade_miskey_front.txt
diff /tmp/hi_ci_trade_cold_front.txt /tmp/hi_ci_trade_miskey_front.txt

HI_BENCH_QUICK=1 cargo bench
