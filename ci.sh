#!/usr/bin/env bash
# Repo gate: formatting, lints, build, tests, and the gradient audit.
# Run from the workspace root; exits nonzero on the first failure.
set -euo pipefail

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (every workspace member, via default-members)"
# Includes the fault-injection suite (tests/recovery.rs): every recovery
# path of the training runner, driven by the deterministic FaultPlan
# harness.
cargo test -q

echo "==> resume-determinism smoke (20 steps straight vs 10 + kill + resume)"
# The headline fault-tolerance contract: a killed-and-resumed attack
# run finishes bitwise-identical to an uninterrupted one.
cargo test --release -q --test recovery -- --ignored

echo "==> supervisor fault matrix (panic / stall / NaN / corrupt checkpoint)"
# The PR 8 containment contract: 4 concurrent supervised jobs on
# per-job Runtimes, one sabotaged per fault kind — the sabotaged job is
# classified (retried+recovered or deadline-exceeded) and its three
# siblings finish bitwise-identical to their solo runs.
cargo test --release -q --test supervisor

echo "==> runtime singleton gate (no process-global mutable state outside runtime.rs)"
# The instance-scoped Runtime is the only place rd-tensor may keep
# process-global mutable statics (the default-runtime shim). Anything
# else reintroduces cross-job coupling and breaks quarantine isolation.
leaks=$(grep -rnE '^(pub )?static ' crates/tensor/src | grep -v 'runtime.rs' || true)
if [ -n "$leaks" ]; then
    echo "process-global static outside crates/tensor/src/runtime.rs:" >&2
    echo "$leaks" >&2
    exit 1
fi

echo "==> one thread budget (threads start only in parallel.rs and supervisor.rs)"
# A runtime built with `threads: n` computes on at most n threads: the
# worker pool in parallel.rs fans work out within that budget, and the
# supervisor runs one thread per job, each on its own runtime. A thread
# started anywhere else computes outside every budget.
spawns=$(grep -rnE 'thread::(scope|spawn|Builder)' crates/*/src |
    grep -vE '^crates/(tensor/src/parallel|core/src/supervisor)\.rs:' || true)
if [ -n "$spawns" ]; then
    echo "thread started outside the worker pool and the supervisor:" >&2
    echo "$spawns" >&2
    exit 1
fi

echo "==> one numeric contract (no FMA intrinsic or mul_add in crates/*/src)"
# Every kernel is exact: separate IEEE mul and add, bitwise identical
# to the tape on both SIMD backends. A fused multiply-add rounds once
# where the tape rounds twice, so it would break that contract.
fma=$(grep -rnE '_mm(256)?_fn?m(add|sub)|\.mul_add\(' crates/*/src || true)
if [ -n "$fma" ]; then
    echo "FMA in product code:" >&2
    echo "$fma" >&2
    exit 1
fi

echo "==> one kernel per op (the plan executors call the tape's kernels)"
# The tape, TrainPlan and InferPlan stay bitwise identical because each
# op's arithmetic lives in one kernel in the module that owns the op
# (conv.rs, bnorm.rs, pool.rs, graph.rs) and all three engines call it.
# An im2col, a GEMM, a max-pool, an upsample or an activation spelled
# out in an executor is a second copy that can drift.
copies=$(grep -nE 'NEG_INFINITY|alpha \* |\.max\(0\.0\)|\.exp\(\)|\(oh / 2\)|\bim2col\(|\bcol2im\(|exact_gemm(_nt|_tn_over)?\(' \
    crates/tensor/src/infer.rs crates/tensor/src/train_plan.rs || true)
if [ -n "$copies" ]; then
    echo "op arithmetic inlined in a plan executor:" >&2
    echo "$copies" >&2
    exit 1
fi

echo "==> plans compile only the detector"
# The compiled plans exist for the detector's hot jobs: scoring every
# frame, the fine-tune and each attack frame's frozen gradient. Every
# other network runs on the tape, which keeps every op, so the plans'
# op set stays the detector's. Outside rd-tensor itself, only
# TinyYolo's three plan caches and the grad audit's compiled cases may
# compile a plan.
compiles=$(grep -rnE '(InferPlan|TrainPlan)::compile\(' crates/*/src |
    grep -vE '^crates/(tensor/src/|detector/src/model\.rs|analysis/src/grad_audit\.rs)' || true)
if [ -n "$compiles" ]; then
    echo "plan compiled outside the detector:" >&2
    echo "$compiles" >&2
    exit 1
fi

echo "==> inference equivalence (compiled plan vs tape, 1 and 4 threads)"
# The PR 4 contract: the grad-free compiled path is bitwise-identical
# to forward_frozen on random weights/inputs at any thread count, and
# batched execution equals per-sample execution.
cargo test --release -q -p rd-detector --test infer

echo "==> reference kernels are exact on both backends"
# Every simd kernel, dispatched, equals its scalar body bit for bit,
# and the dispatcher falls back cleanly without AVX2/FMA.
cargo test --release -q -p rd-tensor simd
# On AVX2 hosts every detector-level step runs the AVX2 kernels. Force
# the portable backend and hold the pinned reference digest and the
# compiled-vs-tape tests on the scalar bodies too.
RD_NO_SIMD=1 cargo test --release -q -p rd-detector --test infer --test train_compiled
# The same for every test that reaches a GEMM's scalar loop: all of
# rd-tensor (including the pin of the tape's `linear` to the plain
# i-k-j loop and the edge-value test, which runs NaN, ±0, ±inf and
# subnormal inputs through the tape and both plans), the GAN's tape
# tests, and both attacks' compiled-vs-tape tests.
RD_NO_SIMD=1 cargo test --release -q -p rd-tensor -p rd-gan
RD_NO_SIMD=1 cargo test --release -q -p road-decals --lib matches_tape_bitwise

echo "==> render fast-path equivalence (seed renderer vs fresh path vs cached FrameRenderer, both backends)"
# The PR 10 contract at test granularity: property-tested bitwise
# identity (frames and RNG draw counts) between the pose-keyed cached
# renderer and the fresh per-frame path over arbitrary poses, decal
# counts, channels and mono/RGB decals, plus both paths against a frozen
# copy of the seed-era renderer on cold and warm caches — on the SIMD
# gather backend and with the portable backend forced.
cargo test --release -q -p road-decals --test render_fastpath
RD_NO_SIMD=1 cargo test --release -q -p road-decals --test render_fastpath

echo "==> compiled training step equivalence (TrainPlan vs tape, 1 and 4 threads)"
# The PR 5 contract at test granularity: full training runs through the
# compiled plan retrace the tape bitwise (losses, gradients, updated
# parameters including BN running stats) at 1 and 4 threads.
cargo test --release -q -p rd-detector --test train_compiled

echo "==> frozen-detector loss equivalence (both attacks, compiled vs tape, release)"
# Both attacks score frames through one frozen-detector loss: the decal
# attack per frame, the [34] baseline as one batched call per step. Its
# compiled gradient-plan route must retrace the tape bitwise for each.
cargo test --release -q -p road-decals --lib matches_tape_bitwise

echo "==> grad audit (every op's backward vs central differences)"
cargo run --release -q -p rd-analysis --bin grad_audit

echo "==> plan audit (static analyzer over every compiled plan)"
# Hard gate: the dataflow-IR lints (liveness, alias, fan-out race,
# fusion legality, param coverage, col-budget) must be clean on every
# plan TinyYolo compiles. The mutation tests
# prove each lint fires at the exact op path of a deliberately
# corrupted plan.
cargo test --release -q -p rd-analysis --test plan_analyzer
cargo run --release -q -p rd-bench --bin plan_audit -- --out target/PLAN_AUDIT.json
test -s target/PLAN_AUDIT.json || { echo "plan_audit wrote no report" >&2; exit 1; }

echo "==> repro binary through the shared CLI entry (repro_table2, smoke, profiled)"
# One repro binary end to end through rd_bench::main: flag parsing, the
# run's runtime built from --threads, and the profile report, which must
# name the attack's compiled training ops. Only --profile-json is passed:
# it must turn the profiler on by itself.
rm -f target/profile_smoke.json
cargo run --release -q -p rd-bench --bin repro_table2 -- \
    --scale smoke --threads 1 --profile-json target/profile_smoke.json >/dev/null
test -s target/profile_smoke.json || { echo "repro_table2 wrote no profile json" >&2; exit 1; }
grep -q '"train/' target/profile_smoke.json ||
    { echo "profile json names no train/ op path" >&2; exit 1; }

echo "==> perfbench build + self-tests (its own cargo workspace)"
# No step above compiles perfbench, so an API change it imports would
# only surface when the benchmark runs. Its tests include the bit-flip
# self-tests and the printed metric names == BENCHMARK.json check.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "ci.sh: all checks passed"
