#!/usr/bin/env bash
# Offline CI gate: build, test, and lint the fault-isolated flow crates.
#
# The workspace has zero external dependencies, so everything here must
# pass with --offline on a bare toolchain. The clippy stage denies
# unwrap/expect in the hot flow path (smart-core, smart-gp) — failures
# there must be typed errors, not panics. clippy.toml allows both in
# #[cfg(test)] code.
set -euo pipefail
cd "$(dirname "$0")"

# The crates that hold the GP kernel (smart-posy, smart-gp), the audit,
# the tracer, power, the PRNG, the blocks, chaos, the simulator, the
# serve daemon and the experiment harness are kept rustfmt-clean. The
# rest of the workspace is not formatted yet, so the check names these
# packages instead of running workspace-wide.
echo "== rustfmt (posy, gp, audit, trace, power, prng, blocks, chaos, sim, serve, bench) =="
cargo fmt --check -p smart-posy -p smart-gp -p smart-audit -p smart-trace \
  -p smart-power -p smart-prng -p smart-blocks -p smart-chaos -p smart-sim \
  -p smart-serve -p smart-bench

# Every target (libs, bins, tests, examples, benches) must build without a
# single rustc warning. Cargo replays cached diagnostics on a warm build,
# so the log is complete even when nothing recompiles.
echo "== build (release, offline, all targets, warning-free) =="
mkdir -p target/ci
cargo build --workspace --all-targets --release --offline 2>&1 | tee target/ci/build.log
if grep -q '^warning' target/ci/build.log; then
  echo "the workspace build emitted warnings (see above)" >&2
  exit 1
fi

# The benchmark is its own Cargo workspace built on the public APIs of
# smart-core, smart-netlist and smart-serve; building it here catches a
# removed or renamed public name before the benchmark does. `--locked`
# keeps smartbench/ frozen: a change that would make cargo rewrite
# smartbench/Cargo.lock (a new dependency edge between workspace crates)
# fails here instead of silently editing the lockfile.
echo "== build smartbench (release, offline, locked) =="
cargo build --release --offline --locked --manifest-path smartbench/Cargo.toml

# Every workload's default-seed output digest must equal the one
# committed in smartbench/baseline.json. `--seconds 0` runs the minimum
# three passes and exits non-zero on a digest mismatch, so a change that
# moves any width bit fails here rather than in the benchmark pipeline.
echo "== smartbench digests (seed 1, committed baseline) =="
for w in sweep-db sweep-stf adder64 serve-mix; do
  cargo run -q --release --offline --locked --manifest-path smartbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 0 --trace 0 > /dev/null || {
    echo "smartbench $w: seed-1 digest differs from smartbench/baseline.json" >&2
    exit 1
  }
done

# The whole suite runs twice: once serial, once with the exploration
# sweeps fanned across 4 workers (the tests, like the `smart` binary, the
# examples and the bench bins, read SMART_WORKERS with
# ParallelOptions::from_env and pass it to the library). Any test that
# diverges between the two runs is a determinism bug in the parallel
# runtime (DESIGN.md §9). The second pass also sets SMART_TRACE=1, which
# the library must ignore: its option defaults trace nothing.
echo "== test (workspace, SMART_WORKERS=1) =="
SMART_WORKERS=1 cargo test -q --offline --workspace

echo "== test (workspace, SMART_WORKERS=4, SMART_TRACE=1) =="
SMART_WORKERS=4 SMART_TRACE=1 cargo test -q --offline --workspace

# Smoke-sized GP kernel bench: exercises the sparse-vs-dense trajectory
# assertion on both evaluation sweeps (mux4 per posynomial; cla8, just
# above the sharing constant, and cla32 through the term dictionary) and
# the warm-start ladder end to end. Writes to target/ci so the committed
# full-run BENCH_gp.json is never clobbered by smoke data. `--check` fails
# the step if a kernel case's sweep (grouped or direct) or its solve
# counters (Newton steps, line-search trials, trials outside the barrier
# domain) or the GP build's deterministic counters (constraints, final
# terms, term pushes, distinct terms) of the smoke entries differ from the
# same cases and entries in the committed full-run record, or if a smoke
# entry's GP build allocates more than its recorded `allocs_per_build`, or
# its log form takes more heap bytes than its recorded `log_form_bytes`
# (both deterministic; the smoke entries include cla64, the largest log
# form).
echo "== gp_kernel smoke (sparse kernel parity on both sweeps + warm-start ladder + pinned sweeps, solve and build counters) =="
mkdir -p target/ci
cargo run -q --offline --release -p smart-bench --bin gp_kernel -- \
  --smoke --out target/ci/BENCH_gp.json --check BENCH_gp.json

# The trace example runs a traced exploration (cold + warm out of the
# sizing cache) and prints the stable JSON export. The bytes on stdout
# must not depend on how the sweep was scheduled: byte-compare the
# SMART_WORKERS=1 and SMART_WORKERS=4 exports (DESIGN.md §11).
echo "== trace determinism (stable export, 1 vs 4 workers) =="
mkdir -p target/ci
SMART_WORKERS=1 cargo run -q --offline --release --example trace \
  > target/ci/trace-w1.json 2>/dev/null
SMART_WORKERS=4 cargo run -q --offline --release --example trace \
  > target/ci/trace-w4.json 2>/dev/null
cmp target/ci/trace-w1.json target/ci/trace-w4.json || {
  echo "trace export diverged between SMART_WORKERS=1 and =4" >&2
  exit 1
}

# Chaos determinism: a fixed-seed fault-injection sweep must produce
# byte-identical outcomes no matter how the sweep was scheduled — fault
# decisions are pure functions of (seed, site, candidate), never of
# worker interleaving (DESIGN.md §13).
echo "== chaos smoke (fixed-seed fault injection, 1 vs 4 workers) =="
SMART_WORKERS=1 cargo run -q --offline --release --example chaos \
  > target/ci/chaos-w1.txt
SMART_WORKERS=4 cargo run -q --offline --release --example chaos \
  > target/ci/chaos-w4.txt
cmp target/ci/chaos-w1.txt target/ci/chaos-w4.txt || {
  echo "chaos outcomes diverged between SMART_WORKERS=1 and =4" >&2
  exit 1
}

# Interrupt/resume: a sweep killed by a budget, whose sizing cache is
# snapshotted and loaded into a fresh cache for the restart, must be
# byte-identical to an uninterrupted sweep.
echo "== chaos interrupt/resume byte-identity (snapshot resume) =="
cargo test -q --offline -p smart-core --test chaos_invariants \
  interrupted_sweep_resumed_from_snapshot_is_byte_identical_to_uninterrupted

# The smoke-sized robustness bench runs its three sections: the §6.1
# savings table across loads, the multi-corner sizing with its
# variation yield, and the chaos survival/salvage study, whose fault-free
# restart must recover every candidate. Both recorded sections must be
# in the JSON, which goes to target/ci so the committed full-run
# BENCH_robustness.json is never clobbered.
echo "== robustness smoke (savings + corner/yield sweep + chaos survival/salvage) =="
cargo run -q --offline --release -p smart-bench --bin robustness -- \
  --smoke --out target/ci/BENCH_robustness.json
grep -q '"corner_yield"' target/ci/BENCH_robustness.json || {
  echo "robustness smoke output is missing the corner_yield section" >&2
  exit 1
}
grep -q '"chaos"' target/ci/BENCH_robustness.json || {
  echo "robustness smoke output is missing the chaos section" >&2
  exit 1
}

# Multi-corner robust sizing: the corners example sizes once against the
# slow/typical/fast set, self-checks feasibility at every corner plus the
# soundness bound in-process, then prints a bit-exact exploration table.
# Worker count must never leak into robust sizing (DESIGN.md §14).
echo "== corners example (self-checked, byte-identical at 1 vs 4 workers) =="
SMART_WORKERS=1 cargo run -q --offline --release --example corners \
  > target/ci/corners-w1.txt
SMART_WORKERS=4 cargo run -q --offline --release --example corners \
  > target/ci/corners-w4.txt
cmp target/ci/corners-w1.txt target/ci/corners-w4.txt || {
  echo "corners example diverged between SMART_WORKERS=1 and =4" >&2
  exit 1
}

# The database must be lint-clean at Error severity: the example exits
# non-zero on any Error-severity finding across the representative
# database sweep (rule engine + monotonicity dataflow, DESIGN.md §10).
echo "== lint-database (Error severity gates the build) =="
cargo run -q --offline --release --example lint -- --only-dirty

# The database must be certificate-clean: the audit example runs the
# pre-solve static analyzer over every representative macro at a 50%
# margin above its own t* and exits non-zero on any infeasibility
# certificate (an analyzer false positive at that margin). The report
# stream is byte-compared across worker counts — the analysis must not
# depend on scheduling (DESIGN.md §15). The prune-parity differential
# suite itself runs inside both workspace test passes above.
echo "== audit-database (certificate-clean, byte-identical at 1 vs 4 workers) =="
SMART_WORKERS=1 cargo run -q --offline --release --example audit \
  > target/ci/audit-w1.txt
SMART_WORKERS=4 cargo run -q --offline --release --example audit \
  > target/ci/audit-w4.txt
cmp target/ci/audit-w1.txt target/ci/audit-w4.txt || {
  echo "audit reports diverged between SMART_WORKERS=1 and =4" >&2
  exit 1
}

# Serve protocol determinism, end to end through the real binary in
# --script mode: a scripted request mix (sizes, a typed-error row, a
# batch fan-out, an exploration sweep, a cache snapshot) must produce
# byte-identical response streams at any worker count, and a daemon
# warm-booted from the cold run's snapshot (into a different shard
# count) must replay the same work byte-identically — only the stats op
# reports cache state, so it alone is excluded from the warm compare.
# Re-snapshotting from the warm daemon must reproduce the cold snapshot
# file byte-for-byte: restarts are lossless (DESIGN.md §16). The size and
# batch lines come back later under new ids; in one process the repeats
# hit the advisor's per-spec structure memo and the sizing cache without
# elaborating a macro, and must reply exactly as their first occurrence.
echo "== serve smoke (script mode: 1 vs 4 workers, snapshot warm restart) =="
SERVE=target/ci/serve
mkdir -p "$SERVE"
cat > "$SERVE/requests.ndjson" <<'EOF'
{"op":"size","id":"s1","macro":"mux8:dom","load":20,"delay":320}
{"op":"size","id":"s2","macro":"zd16:domino"}
{"op":"size","id":"s3","macro":"bogus9"}
{"op":"batch","id":"b1","requests":[{"macro":"inc8","delay":400},{"macro":"mux8:dom","load":20,"delay":320},{"macro":"mux4"}]}
{"op":"explore","id":"e1","macro":"mux4","delay":400}
{"op":"size","id":"s1r","macro":"mux8:dom","load":20,"delay":320}
{"op":"size","id":"s2r","macro":"zd16:domino"}
{"op":"size","id":"s3r","macro":"bogus9"}
{"op":"batch","id":"b1r","requests":[{"macro":"inc8","delay":400},{"macro":"mux8:dom","load":20,"delay":320},{"macro":"mux4"}]}
{"op":"snapshot","id":"sn","path":"target/ci/serve/cache.snapshot"}
{"op":"stats","id":"st"}
EOF
SMART_WORKERS=1 target/release/smart-datapath serve \
  --script "$SERVE/requests.ndjson" > "$SERVE/cold-w1.ndjson"
SMART_WORKERS=4 target/release/smart-datapath serve \
  --script "$SERVE/requests.ndjson" > "$SERVE/cold-w4.ndjson"
cmp "$SERVE/cold-w1.ndjson" "$SERVE/cold-w4.ndjson" || {
  echo "serve replies diverged between SMART_WORKERS=1 and =4" >&2
  exit 1
}
# Prints one reply of a response stream with its id removed.
reply_without_id() {
  grep -F "\"id\":\"$2\"" "$1" | sed "s/\"id\":\"$2\"//"
}
for w in 1 4; do
  for id in s1 s2 s3 b1; do
    first=$(reply_without_id "$SERVE/cold-w$w.ndjson" "$id")
    again=$(reply_without_id "$SERVE/cold-w$w.ndjson" "${id}r")
    [ -n "$first" ] && [ "$first" = "$again" ] || {
      echo "repeated request ${id}r replied differently from $id (SMART_WORKERS=$w)" >&2
      exit 1
    }
  done
done
cp "$SERVE/cache.snapshot" "$SERVE/cache.cold.snapshot"
for w in 1 4; do
  SMART_WORKERS=$w target/release/smart-datapath serve --shards 3 \
    --restore "$SERVE/cache.cold.snapshot" \
    --script "$SERVE/requests.ndjson" > "$SERVE/warm-w$w.ndjson"
done
cmp "$SERVE/warm-w1.ndjson" "$SERVE/warm-w4.ndjson" || {
  echo "warm serve replies diverged between SMART_WORKERS=1 and =4" >&2
  exit 1
}
grep -v '"op":"stats"' "$SERVE/cold-w1.ndjson" > "$SERVE/cold-work.ndjson"
grep -v '"op":"stats"' "$SERVE/warm-w1.ndjson" > "$SERVE/warm-work.ndjson"
cmp "$SERVE/cold-work.ndjson" "$SERVE/warm-work.ndjson" || {
  echo "warm-restarted serve replies diverged from the cold run" >&2
  exit 1
}
cmp "$SERVE/cache.cold.snapshot" "$SERVE/cache.snapshot" || {
  echo "re-snapshot from the warm daemon diverged from the cold snapshot" >&2
  exit 1
}

echo "== clippy (no unwrap/expect in flow crates, pool/cache included) =="
cargo clippy -q --offline -p smart-core -p smart-gp -p smart-lint -p smart-trace \
  -p smart-sta -p smart-models -p smart-posy -p smart-chaos -p smart-prng \
  -p smart-audit -p smart-netlist -p smart-sim -p smart-power -p smart-blocks \
  -p smart-macros -p smart-bench -p smart-serve -- \
  -D clippy::unwrap_used -D clippy::expect_used

echo "CI OK"
