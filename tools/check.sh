#!/bin/sh
# Pre-merge gate: static analysis clean, docs in sync, tier-1 passes, then a
# 4-second smoke run of every `bench` workload whose output checks must pass
# (a broken import or a hung worker loop shows here, not in the pipeline).
# Run from the repo root:  sh tools/check.sh
# Fast mode (analysis + docs + unit tests only, skips integration):
#   sh tools/check.sh --fast
set -e

cd "$(dirname "$0")/.."
export PYTHONPATH=src

FAST=0
case "${1:-}" in
    --fast) FAST=1 ;;
    "") ;;
    *) echo "usage: sh tools/check.sh [--fast]" >&2; exit 2 ;;
esac

echo "== repro.analysis (invariant linter) =="
python -m repro.analysis src

echo "== docs (CLI examples + rule tables in sync) =="
python tools/check_docs.py

if [ "$FAST" = 1 ]; then
    echo "== unit + property tests (fast mode) =="
    python -m pytest -x -q tests/unit tests/property
else
    echo "== tier-1 tests (soak + net excluded) =="
    python -m pytest -x -q
    for w in echo_sync echo_window tpcw_chain payload_proc failover; do
        echo "== bench $w smoke (output checks must pass) =="
        python3 -m bench --workload "$w" --seconds 4 --trace 0
    done
fi

echo "== all gates passed =="
