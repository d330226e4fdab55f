#!/usr/bin/env bash
# Decode-runtime bench runner: builds bench_bench_decode_json and records
# continuous-batching tokens/s (batch 1/4/16, fp32 vs Tender-quantized KV
# cache) plus the churned paged-vs-contiguous KV comparison and the
# mixed-traffic serving scenario (chat + long-doc + short completions
# through the serving front end: TTFT/ITL percentiles per priority class,
# gated sampling_order_independent) and the preemption_pressure scenario
# (mid-decode freeze/park/resume on vs off under a bounded pool: gated
# preempt_resume_bitexact + park accounting, recorded interactive TTFT
# p95 per arm) into BENCH_decode.json at the repo root (serving-path
# perf trajectory, PR over PR).
#
# Usage: scripts/bench_decode.sh [--smoke] [prompt new_tokens workers [out.json]]
# Defaults: 16 32, one worker per hardware thread, BENCH_decode.json;
# --smoke runs the reduced CI sizes and still records the gated
# correctness fields (scripts/check_bench.py).
# TENDER_CMAKE_ARGS adds configure flags (CI passes the ccache launcher).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
# shellcheck disable=SC2086  # word splitting of the extra args is intended
cmake -B build -S . ${TENDER_CMAKE_ARGS:-} >/dev/null
cmake --build build -j"$JOBS" --target bench_bench_decode_json >/dev/null
./build/bench_bench_decode_json "$@"
