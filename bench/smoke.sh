#!/usr/bin/env bash
# Smoke test of the benchmark itself: the harness's unit tests, then every
# workload, oracle and the traced run at toy size (--quick: numbers are
# meaningless, no bounds apply). Exits non-zero on any oracle mismatch.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --quiet
cargo run --release --offline --quiet --bin ledger -- --quick --runs 1 --trace 1 --out out/ledger-quick.json
