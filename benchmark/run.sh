#!/usr/bin/env bash
# The one command of the SubDEx step benchmark: builds the benchmark's own
# workspace offline and hands every argument to it.
#
#   benchmark/run.sh run --seed 1            every workload, untraced then traced
#   benchmark/run.sh selfcheck               two untraced sets of one commit must agree
#   benchmark/run.sh compare a.json b.json   did b regress against a?
#   benchmark/run.sh --workload explore_rp --seed 1 --seconds 20 --trace 0
#
# Runs from the repository root, because results, traces and scratch stores
# go to benchmark/out/ relative to it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
