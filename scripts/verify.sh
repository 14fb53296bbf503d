#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
# Runs entirely offline — the workspace's hermetic dependency policy
# (DESIGN.md §6) means no registry access is ever needed; if any step
# below tries to reach a registry, that itself is a policy violation.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (warnings deny the gate)"
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline

echo "==> cargo run -p cs-lint --offline"
cargo run -q -p cs-lint --release --offline

echo "==> cs-lint --api-check (public-API snapshot gate)"
cargo run -q -p cs-lint --release --offline -- --api-check

echo "==> bench_json --smoke (benchmark emitter + PCA hot-path budget gate)"
cargo run -q -p cs-bench --release --offline --bin bench_json -- --smoke --out target/bench-smoke.json --budget BENCH_BUDGET.json

echo "==> ann_gate (ANN recall@10 >= 0.9 and SIM-F1 parity on the scaling-quality grid)"
cargo run -q -p cs-repro --release --offline --bin ann_gate

echo "==> cs-fault smoke (fault matrix, digest stable across CS_THREADS)"
digest=""
for threads in 1 2 8; do
  out="$(CS_THREADS=$threads cargo run -q -p cs-fault --release --offline --bin fault_smoke)"
  line="$(printf '%s\n' "$out" | grep '^fault-matrix digest: ')"
  if [ -z "$digest" ]; then
    digest="$line"
    printf '%s (CS_THREADS=%s)\n' "$line" "$threads"
  elif [ "$line" != "$digest" ]; then
    echo "FAIL: fault-matrix digest diverged under CS_THREADS=$threads" >&2
    echo "  expected: $digest" >&2
    echo "  got:      $line" >&2
    exit 1
  fi
done

echo "==> cs-fault smoke under sanitizer (lock-order + float-env digests stable)"
fault_digest=""
san_digest=""
for threads in 1 2 8; do
  out="$(CS_SANITIZE=1 CS_THREADS=$threads cargo run -q -p cs-fault --release --offline --bin fault_smoke)"
  fline="$(printf '%s\n' "$out" | grep '^fault-matrix digest: ')"
  sline="$(printf '%s\n' "$out" | grep '^sanitizer digest: ')"
  if [ -z "$san_digest" ]; then
    fault_digest="$fline"
    san_digest="$sline"
    printf '%s (CS_SANITIZE=1 CS_THREADS=%s)\n' "$fline" "$threads"
    printf '%s (CS_SANITIZE=1 CS_THREADS=%s)\n' "$sline" "$threads"
  elif [ "$fline" != "$fault_digest" ] || [ "$sline" != "$san_digest" ]; then
    echo "FAIL: sanitized digests diverged under CS_THREADS=$threads" >&2
    echo "  expected: $fault_digest / $san_digest" >&2
    echo "  got:      $fline / $sline" >&2
    exit 1
  fi
done

echo "==> cs-fault generator fuzz (knob lattice, digest stable across CS_THREADS)"
fuzz_digest=""
for threads in 1 2 8; do
  out="$(CS_THREADS=$threads cargo run -q -p cs-fault --release --offline --bin fuzz_smoke)"
  line="$(printf '%s\n' "$out" | grep '^generator-fuzz digest: ')"
  if [ -z "$fuzz_digest" ]; then
    fuzz_digest="$line"
    printf '%s (CS_THREADS=%s)\n' "$line" "$threads"
  elif [ "$line" != "$fuzz_digest" ]; then
    echo "FAIL: generator-fuzz digest diverged under CS_THREADS=$threads" >&2
    echo "  expected: $fuzz_digest" >&2
    echo "  got:      $line" >&2
    exit 1
  fi
done

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

echo "==> release goldens (the debug run above skips table4, fig7, ann_quality and scaling_quality)"
cargo test -q --release --offline -p cs-repro --test golden

echo "==> pipebench tests (the end-to-end benchmark must build against the library API)"
cargo test -q --release --offline --manifest-path pipebench/Cargo.toml

echo "==> pipebench digests (every workload's output pinned, seed 1 plus the synth-1300 hold-out seed, default/1/3 threads)"
# Each pipebench detail line carries a digest of the run's output:
# decisions, votes and per-matcher candidate counts, or the sweep's AUC
# bits. Pinning them here makes a kernel or numerics change that moves
# any output fail this gate, not only the benchmark. When a change moves
# a digest on purpose, update its pin below and record the old and new
# digest, with the evidence that the move is legitimate, in CHANGES.md.
# Every pin holds for any worker count: the default (the machine's
# parallelism), one worker (no threads at all) and three (bands and
# chunks split unevenly).
pins=(
  "paper-oc3fo 1 dc5b1471653c22f3"
  "sweep-oc3fo 1 49bd56169e19bef2"
  "synth-1300 1 a729873f006fff60"
  "synth-1300 73019 8a44dc13048f2548"
)
for threads in "" 1 3; do
  for pin in "${pins[@]}"; do
    read -r workload seed want <<<"$pin"
    out="$(env ${threads:+CS_THREADS=$threads} cargo run -q --release --offline \
      --manifest-path pipebench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds 1 --trace 0)"
    got="$(printf '%s\n' "$out" | grep -o '"digest":"[0-9a-f]*"' | head -n 1 | cut -d'"' -f4)"
    if [ "$got" != "$want" ]; then
      echo "FAIL: pipebench $workload seed $seed digest '$got' (CS_THREADS=${threads:-default}), pinned $want" >&2
      exit 1
    fi
    echo "pipebench digest: $workload seed $seed $got (CS_THREADS=${threads:-default})"
  done
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
