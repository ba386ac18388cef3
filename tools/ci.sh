#!/usr/bin/env bash
# Full local CI matrix: a build-artifact hygiene check, release build +
# tests (plus the memory-table gate, bench/mem_calibration --gate), a
# standalone build of the perfbench/ benchmark (fxrz_perfbench)
# against the library, an FXRZ_METRICS=OFF build proving the observability
# layer strips cleanly, ThreadSanitizer build + tests, ASan+UBSan build
# + tests (including the fuzz-corpus replay harnesses), an overload-chaos
# re-run of the resource-governance suite under ASan with a finite
# FXRZ_MEM_BUDGET, an ASan+UBSan FXRZ_FAULT_INJECT build running the
# fault-injection/escalation-ladder suite and the serving-layer
# retry/breaker/chaos tests, a gcov coverage gate holding src/serve/ line
# coverage above 85% (tools/coverage.sh), then the static-analysis passes:
# fxrz_lint + clang-tidy via the lint target, and a clang
# -Werror=thread-safety compile of the library (skipped with a message on
# gcc-only boxes).
# Mirrors what the acceptance gates for the decode-hardening and guarded
# serving work require.
#
# Usage: tools/ci.sh [JOBS]

set -euo pipefail

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

# Build outputs must never be committed: they bloat the history and go
# stale the moment a source file changes. Fail fast if any build
# directory's contents are tracked or staged.
echo "=== build-artifact hygiene ==="
if git ls-files --cached -- 'build/' 'build-*/' | grep -q .; then
  echo "FAIL: build outputs are tracked/staged:" >&2
  git ls-files --cached -- 'build/' 'build-*/' | head >&2
  echo "(run: git rm -r --cached build/ <...> and commit)" >&2
  exit 1
fi

run_config() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$build_dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== [$name] test ==="
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

# The release stage builds with -Werror, so a new warning anywhere in
# src/, the tests, benches or examples fails CI instead of scrolling past.
run_config release build-ci-release \
  -DCMAKE_BUILD_TYPE=Release -DFXRZ_WERROR=ON

# Serving-layer load smoke: the closed-loop harness under its acceptance
# gate (p99 budget + zero dropped-without-status), on top of the
# serve_load_gate ctest entry that already ran serially above. This direct
# invocation keeps the harness exercised even if someone runs ci.sh with a
# filtered ctest.
echo "=== serve_load smoke ==="
(cd build-ci-release && ./bench/serve_load --requests 400 --clients 4 --gate 1.0)

# Memory-table gate: every codec's measured peak-RSS multiplier on a 128^3
# round trip must stay under its admission-control table entry
# (CodecMemoryMultiplier). Codecs that run parallel sections inside one
# call must not outgrow the table the memory budget admits them by.
echo "=== mem_calibration gate ==="
(cd build-ci-release && ./bench/mem_calibration --gate)

# Benchmark build: perfbench/ is a standalone CMake package (the library
# from src/ plus fxrz_perfbench.cc), built the way perfbench/run.py builds
# it. A library API change that breaks fxrz_perfbench fails here instead
# of at benchmark time.
echo "=== [perfbench] configure + build ==="
cmake -S perfbench -B build-ci-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci-perfbench -j "$JOBS"

# Observability-off configuration: FXRZ_METRICS=OFF compiles the metrics
# registry and trace spans down to no-ops. The suite must pass unchanged
# (metrics-dependent tests GTEST_SKIP), proving production can strip the
# layer without behavioral drift.
run_config metrics-off build-ci-nometrics \
  -DFXRZ_METRICS=OFF \
  -DFXRZ_BUILD_BENCHMARKS=OFF -DFXRZ_BUILD_EXAMPLES=OFF

# Sanitizer stages run the chaos storm at a reduced (still multi-thousand)
# request count: TSan/ASan overhead makes the full 100k gate needlessly
# slow there, and the full count already ran in the release stage above.
export FXRZ_CHAOS_REQUESTS=20000

# The TSan stage is the lock-discipline gate for the serving layer: the
# serve stress and chaos storm tests (tests/serve/) run here with every
# queue/slot/breaker/drain interaction under the race detector.
run_config thread build-ci-tsan \
  -DFXRZ_SANITIZE=thread \
  -DFXRZ_BUILD_BENCHMARKS=OFF -DFXRZ_BUILD_EXAMPLES=OFF

# Like the release stage, the ASan+UBSan build stops on any warning.
run_config asan-ubsan build-ci-asan \
  -DFXRZ_SANITIZE=address,undefined -DFXRZ_FUZZ=ON -DFXRZ_WERROR=ON \
  -DFXRZ_BUILD_BENCHMARKS=OFF -DFXRZ_BUILD_EXAMPLES=OFF

# Overload-chaos stage: re-run the resource-governance suite in the ASan
# build with a small-but-finite process memory budget injected through the
# environment. The chaos storm itself constructs its own budget, but the
# rest of the serve/guard suite normally runs against the unlimited
# ProcessMemoryBudget() -- this pass forces the FXRZ_MEM_BUDGET parse +
# default-injection path and real reserve/release accounting under every
# one of those tests, with ASan watching the RAII lifetimes. 64m is finite
# enough that the accounting is live on every request, large enough that
# no well-formed test request is denied. Storm size stays scaled by the
# FXRZ_CHAOS_REQUESTS export above.
echo "=== overload chaos (ASan, FXRZ_MEM_BUDGET=64m) ==="
FXRZ_MEM_BUDGET=64m ctest --test-dir build-ci-asan --output-on-failure \
  -R 'OverloadChaos|NoisyNeighbor|Quota|ServeStress|ServerTest|GuardedServing' \
  -j "$JOBS"

# Fault-injection configuration: compiles the deterministic fault points
# in (FXRZ_FAULT_INJECT) and runs the whole suite -- including the
# escalation-ladder fault tests that GTEST_SKIP without the flag -- under
# ASan+UBSan, proving the guarded serving layer recovers or errors cleanly
# on every injected failure. Besides the serving-path sites
# (compressor-compress/decompress, model-query, archive-decode), this
# build arms the storage-integrity sites: `bitrot` forces a CRC32C
# comparison (util/checksum.h Crc32cMatches) to report a mismatch, and
# `torn-write` simulates a crash between flush and rename inside
# AtomicWriteFile, leaving the temp file as debris. The container and
# ladder suites use them to prove corrupt files are detected, a torn
# write never damages the committed file, and checksum failures escalate
# the serving ladder.
# The serve retry/breaker tests and the probabilistic chaos storm arm
# their sites here too: injected dispatch/compressor faults must drive the
# retry ladder and breakers without ever losing a request's Status.
run_config fault-inject build-ci-fault \
  -DFXRZ_SANITIZE=address,undefined -DFXRZ_FAULT_INJECT=ON \
  -DFXRZ_BUILD_BENCHMARKS=OFF -DFXRZ_BUILD_EXAMPLES=OFF

unset FXRZ_CHAOS_REQUESTS

# Serving-layer coverage gate: an instrumented build runs the serve suites
# (fault injection on, so the retry and breaker paths count)
# and tools/coverage.sh fails the stage when src/serve/ line coverage
# drops below 85%. Skips with a message where gcov is unavailable (e.g. a
# clang-only box whose gcov does not match the compiler).
echo "=== serving-layer coverage gate ==="
if ! command -v gcov >/dev/null 2>&1; then
  echo "ci.sh: gcov not found; skipping the src/serve/ coverage gate." >&2
else
  tools/coverage.sh "$JOBS"
fi

echo "=== lint ==="
cmake --build build-ci-release --target lint

# Thread-safety analysis configuration: clang compiles the library with
# -Werror=thread-safety so any lock-discipline regression against the
# FXRZ_* annotations (src/util/thread_annotations.h) is a hard compile
# error. Compile-only -- the annotations are checked statically, the
# behavioral coverage comes from the TSan configuration above. Skips with
# a message on gcc-only boxes; the annotations are no-ops there and the
# fxrz_lint stage still enforces that every locking site uses the
# annotated vocabulary.
echo "=== thread-safety analysis ==="
CLANGXX="$(command -v clang++ || true)"
if [[ -z "$CLANGXX" ]]; then
  echo "ci.sh: clang++ not found; skipping -Werror=thread-safety build." >&2
else
  cmake -B build-ci-threadsafety -S . \
    -DCMAKE_CXX_COMPILER="$CLANGXX" \
    -DFXRZ_THREAD_SAFETY_ANALYSIS=ON \
    -DFXRZ_BUILD_TESTS=OFF -DFXRZ_BUILD_BENCHMARKS=OFF \
    -DFXRZ_BUILD_EXAMPLES=OFF
  cmake --build build-ci-threadsafety -j "$JOBS"
fi

echo "=== CI matrix passed ==="
