#!/usr/bin/env bash
# Line-coverage gate for the serving layer (src/serve/).
#
# Builds the FXRZ_COVERAGE=ON configuration (gcov instrumentation, -O0,
# fault injection compiled in so the retry/breaker/chaos paths actually
# run), executes the serving-related test and bench-gate suites, then
# aggregates gcov line coverage over every src/serve/ file and fails when
# the total drops below the floor (default 85%, override with
# FXRZ_COVERAGE_MIN).
#
# Aggregation detail: a header's inline code is instrumented once per
# translation unit that includes it; the merge below keeps the
# best-covered instance per source file, which is the standard
# lcov-free approximation.
#
# Usage: tools/coverage.sh [JOBS]

set -euo pipefail

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
MIN="${FXRZ_COVERAGE_MIN:-85}"
BUILD_DIR=build-coverage
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

if ! command -v gcov >/dev/null 2>&1; then
  echo "coverage.sh: gcov not found on PATH" >&2
  exit 1
fi

echo "=== [coverage] configure ==="
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DFXRZ_COVERAGE=ON \
  -DFXRZ_FAULT_INJECT=ON \
  -DFXRZ_BUILD_EXAMPLES=OFF
echo "=== [coverage] build ==="
cmake --build "$BUILD_DIR" -j "$JOBS"

# Fresh counters: coverage measures THIS run, not whatever ran before.
find "$BUILD_DIR" -name '*.gcda' -delete

echo "=== [coverage] serving-layer suites ==="
# Everything that drives src/serve/: the unit/property suites, the chaos
# storms (scaled down -- -O0 instrumented builds are slow), and the
# closed-loop bench gates.
FXRZ_CHAOS_REQUESTS=2000 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$JOBS" \
  -R 'Serve|Server|Chaos|Drain|Quota|Breaker|Retry|NoisyNeighbor|serve_'

echo "=== [coverage] gcov aggregation (src/serve/) ==="
gcov_out="$BUILD_DIR/coverage-gcov.txt"
: > "$gcov_out"
while IFS= read -r gcda; do
  gcov -n "$gcda" >> "$gcov_out" 2>/dev/null || true
done < <(find "$BUILD_DIR" -name '*.gcda')

awk -v min="$MIN" '
  /^File / {
    f = $0
    sub(/^File .#?/, "", f)   # gcov quotes the path: File '"'"'...'"'"'
    gsub(/\x27/, "", f)
  }
  /^Lines executed:/ {
    if (f ~ /src\/serve\//) {
      # "Lines executed:86.36% of 220"
      s = $0
      sub(/^Lines executed:/, "", s)
      split(s, parts, "% of ")
      pct = parts[1] + 0
      n = parts[2] + 0
      # Keep the best-covered instance per file (headers repeat per TU).
      key = f
      sub(/^.*src\/serve\//, "src/serve/", key)
      if (!(key in best) || pct > best[key]) {
        best[key] = pct
        lines[key] = n
      }
    }
    f = ""
  }
  END {
    if (length(best) == 0) {
      print "coverage.sh: no gcov data for src/serve/ -- did the suites run?"
      exit 1
    }
    total_lines = 0
    covered = 0.0
    for (k in best) {
      printf "  %6.2f%%  %5d lines  %s\n", best[k], lines[k], k
      total_lines += lines[k]
      covered += best[k] * lines[k] / 100.0
    }
    pct = 100.0 * covered / total_lines
    printf "src/serve/ line coverage: %.2f%% of %d lines (floor %s%%)\n", \
           pct, total_lines, min
    if (pct < min + 0.0) {
      print "COVERAGE GATE FAIL"
      exit 1
    }
    print "coverage gate: PASS"
  }
' "$gcov_out"
