#!/usr/bin/env bash
# Static-analysis pass over src/: first the project-specific fxrz_lint
# checks (tools/fxrz_lint.cc -- byte-reader discipline, unguarded shared
# state), then clang-tidy with the repo's .clang-tidy
# config. Fails (exit 1) on any finding. fxrz_lint has no clang dependency
# and always runs (built from the build tree, or compiled ad hoc when the
# build skipped tools); the clang-tidy stage skips with exit 0 and a
# message when clang-tidy is not installed, so gcc-only CI boxes still get
# the fxrz checks and pass the rest of the matrix.
#
# Usage: tools/run_lint.sh [BUILD_DIR]   (default: build)

set -u

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

FXRZ_LINT="$BUILD_DIR/tools/fxrz_lint"
if [[ ! -x "$FXRZ_LINT" ]]; then
  FXRZ_LINT="$BUILD_DIR/fxrz_lint_standalone"
  echo "run_lint.sh: $BUILD_DIR/tools/fxrz_lint not built; compiling" >&2
  mkdir -p "$BUILD_DIR"
  if ! "${CXX:-c++}" -std=c++20 -O1 -o "$FXRZ_LINT" tools/fxrz_lint.cc; then
    echo "run_lint.sh: failed to compile tools/fxrz_lint.cc" >&2
    exit 1
  fi
fi
echo "run_lint.sh: fxrz_lint over src/"
if ! "$FXRZ_LINT" --root "$REPO_ROOT" src; then
  echo "run_lint.sh: fxrz_lint reported findings." >&2
  exit 1
fi

TIDY="$(command -v clang-tidy || true)"
if [[ -z "$TIDY" ]]; then
  echo "run_lint.sh: clang-tidy not found on PATH; skipping lint pass." >&2
  echo "run_lint.sh: install clang-tools to enable static analysis." >&2
  exit 0
fi

if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "run_lint.sh: $BUILD_DIR/compile_commands.json missing." >&2
  echo "run_lint.sh: configure with cmake -B $BUILD_DIR -S . first." >&2
  exit 1
fi

mapfile -t SOURCES < <(find src -name '*.cc' | sort)
if [[ ${#SOURCES[@]} -eq 0 ]]; then
  echo "run_lint.sh: no sources under src/." >&2
  exit 1
fi

echo "run_lint.sh: linting ${#SOURCES[@]} files with $TIDY"
JOBS="$(nproc 2>/dev/null || echo 4)"
printf '%s\n' "${SOURCES[@]}" |
  xargs -P "$JOBS" -n 1 "$TIDY" -p "$BUILD_DIR" --quiet
STATUS=$?
if [[ $STATUS -ne 0 ]]; then
  echo "run_lint.sh: clang-tidy reported findings." >&2
  exit 1
fi
echo "run_lint.sh: clean."
