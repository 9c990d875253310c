#!/usr/bin/env bash
# Runs the unsafe surface under AddressSanitizer: the ring addresses the
# topology endpoints cache, the hazard domain's retire/free path, both
# DWCAS backends' raw accesses and the queues' slot cells.
#
#   tools/asan.sh            # hardware DWCAS backend
#   tools/asan.sh portable   # the portable LL/SC backend
#
# Needs the nightly toolchain (`-Zsanitizer`); `--target` keeps build
# scripts and proc macros uninstrumented. Builds into `target/asan` unless
# CARGO_TARGET_DIR says otherwise. Leak checking is on for every test but
# one: `panicking_drop_at_teardown_leaks_the_rest` leaks by design (a
# panicking element drop at teardown leaks the elements behind it), so
# the leak-checked run skips it and it runs alone with
# `ASAN_OPTIONS=detect_leaks=0`.
set -euo pipefail

case "${1:-}" in
  "") core=(); dwcas=() ;;
  portable) core=(--features portable); dwcas=(--features force-portable) ;;
  *) echo "usage: tools/asan.sh [portable]" >&2; exit 2 ;;
esac

export RUSTFLAGS="-Zsanitizer=address"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/asan}"
test=(cargo +nightly test -q --target x86_64-unknown-linux-gnu)
leaky=panicking_drop_at_teardown_leaks_the_rest

"${test[@]}" -p wcq --lib "${core[@]}"
"${test[@]}" -p hazard
"${test[@]}" -p dwcas "${dwcas[@]}"
"${test[@]}" -p wcq-suite "${core[@]}" \
  --test topology --test topology_upgrade --test handles --test handle_churn \
  --test mpmc_all_queues --test channel --test blocking_facade \
  --test unbounded_churn --test unbounded_queues --test unbounded_reclaim \
  -- --skip "$leaky"
ASAN_OPTIONS=detect_leaks=0 "${test[@]}" -p wcq-suite "${core[@]}" \
  --test channel -- --exact "$leaky"
