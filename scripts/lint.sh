#!/usr/bin/env bash
# Repo-specific lint gate. Runs everywhere (plain bash + grep); picks up
# clang-format / clang-tidy when installed, skips them with a notice when
# not. Exits non-zero on any violation.
#
#   scripts/lint.sh            # all custom rules + format check if available
#   LINT_STRICT_FORMAT=1 scripts/lint.sh   # formatting violations are fatal
#
# Rules enforced (see DESIGN.md §7):
#   1. Include guards must be derived from the file path:
#        src/lqs/bounds.h   -> LQS_LQS_BOUNDS_H_
#        tests/test_util.h  -> LQS_TESTS_TEST_UTIL_H_
#   2. No naked assert() in src/ outside the validator layer and the
#      documented primitive allowlist — invariants belong in Status-returning
#      checks (src/analysis/) that stay loud in Release builds.
#   3. No floating-point ==/!= comparisons in estimator/analysis/monitor/
#      transport code (src/lqs/, src/analysis/, src/monitor/, src/remote/):
#      progress arithmetic must compare against tolerances. Suppress a
#      deliberate exact comparison with `// lint:allow-float-eq` on the
#      same line.
#   4. No raw std mutex/lock/condvar types in src/ outside the annotated
#      primitive layer (src/common/mutex.{h,cc}): std::mutex cannot carry
#      Clang capability attributes, so raw uses are invisible to the
#      -Wthread-safety gate and skip the lqs::Mutex lock-rank checker
#      (DESIGN.md §9). Suppress a deliberate use with
#      `// lint:allow-raw-mutex` on the same line.
#   5. clang-format conformance (informational unless LINT_STRICT_FORMAT=1).
#   6. tools/lqs_verify: Status-discipline, LQS_NOALLOC allocation-freedom,
#      layer-DAG, lock-discipline, and determinism checks over the whole
#      tree (DESIGN.md §12, §14). Needs only python3; skipped with a notice
#      when absent.
#   7. No wall-clock / entropy sources in src/ outside the sanctioned
#      wrappers (src/common/rng.{h,cc}, src/common/virtual_clock.h):
#      <chrono>/<ctime>/<random> includes and time() calls feed
#      nondeterminism the LQS_DETERMINISTIC contract (DESIGN.md §14) must
#      never see. There is no suppression: a clock src/ needs goes into a
#      wrapper on the allowlist.
#
# Every rule always runs; the script exits non-zero if ANY of them failed
# (the failure count aggregates — one broken rule never masks another).

set -u
cd "$(dirname "$0")/.."

failures=0
fail() {
  echo "lint: $*" >&2
  failures=$((failures + 1))
}

# ---- 1. Include guards ----------------------------------------------------
while IFS= read -r header; do
  rel="${header#./}"
  case "$rel" in
    src/*) stem="${rel#src/}" ;;
    *)     stem="$rel" ;;
  esac
  guard="LQS_$(echo "${stem%.h}_H_" | tr 'a-z/.-' 'A-Z___')"
  if ! grep -q "^#ifndef ${guard}\$" "$rel" ||
     ! grep -q "^#define ${guard}\$" "$rel"; then
    fail "$rel: include guard must be ${guard}"
  fi
done < <(find src tests bench -name '*.h' -type f)

# ---- 2. Naked asserts in src/ ---------------------------------------------
# Allowlist: low-level primitives whose documented preconditions are checked
# with assert by design (constructing a StatusOr from OK, RNG range misuse).
assert_allowlist='^src/common/statusor\.h$|^src/common/rng\.cc$'
while IFS=: read -r file line _; do
  if ! echo "$file" | grep -Eq "$assert_allowlist"; then
    fail "$file:$line: naked assert() in src/ — return a Status (or move the check into src/analysis/)"
  fi
done < <(grep -rnE '(^|[^_[:alnum:]])assert\(' src --include='*.cc' --include='*.h' | grep -v 'static_assert')

# ---- 3. Floating-point equality in estimator code -------------------------
# Heuristic: ==/!= against a floating literal, or between est_*/progress/
# *_ms/alpha/weight-style identifiers known to be double in this codebase.
float_eq_pattern='(==|!=)[[:space:]]*[0-9]+\.[0-9]|[0-9]+\.[0-9]+[[:space:]]*(==|!=)|(est_rows|est_cpu_ms|est_io_ms|est_rebinds|_progress|alpha|n_hat)(\[[^][]*\])?[[:space:]]*(==|!=)|(==|!=)[[:space:]]*[A-Za-z_.]*(est_rows|est_cpu_ms|est_io_ms|est_rebinds|_progress|n_hat)'
while IFS=: read -r file line text; do
  case "$text" in
    *'lint:allow-float-eq'*) continue ;;
  esac
  fail "$file:$line: floating-point ==/!= in estimator code — compare against a tolerance"
done < <(grep -rnE "$float_eq_pattern" src/lqs src/analysis src/monitor src/remote --include='*.cc' --include='*.h')

# ---- 4. Raw std mutex primitives in src/ ----------------------------------
# The annotated wrappers in src/common/mutex.h are the only place the std
# primitives may appear; everything else must use lqs::Mutex / lqs::MutexLock
# / lqs::CondVar so the clang thread-safety analysis and the lock-rank
# checker see every critical section.
raw_mutex_pattern='std::(recursive_mutex|recursive_timed_mutex|timed_mutex|shared_mutex|shared_timed_mutex|mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable_any|condition_variable)'
raw_mutex_allowlist='^src/common/mutex\.(h|cc)$'
while IFS=: read -r file line text; do
  if echo "$file" | grep -Eq "$raw_mutex_allowlist"; then
    continue
  fi
  case "$text" in
    *'lint:allow-raw-mutex'*) continue ;;
  esac
  fail "$file:$line: raw std mutex primitive in src/ — use lqs::Mutex/MutexLock/CondVar from common/mutex.h (or suppress with // lint:allow-raw-mutex)"
done < <(grep -rnE "$raw_mutex_pattern" src --include='*.cc' --include='*.h')

# ---- 7. Wall-clock / entropy sources in src/ -------------------------------
# Deterministic outputs are a checked property (lqs-verify `determinism`,
# DESIGN.md §14); the sanctioned sources are seeded lqs::Rng and
# VirtualClock. A <chrono>/<ctime>/<random> include or a time() call
# anywhere else in src/ smuggles nondeterminism in below the call-graph
# checker's sight line, so the include itself is the violation.
wallclock_pattern='#include <(chrono|ctime|random)>|(^|[^_[:alnum:]])time\('
wallclock_allowlist='^src/common/(rng\.(h|cc)|virtual_clock\.h)$'
while IFS=: read -r file line text; do
  if echo "$file" | grep -Eq "$wallclock_allowlist"; then
    continue
  fi
  fail "$file:$line: wall-clock/entropy source in src/ — use VirtualClock or seeded lqs::Rng"
done < <(grep -rnE "$wallclock_pattern" src --include='*.cc' --include='*.h')

# ---- 5. clang-format (when installed) -------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  fmt_out=$(find src tests bench examples \
              \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -type f \
              -exec clang-format --dry-run {} + 2>&1)
  if [ -n "$fmt_out" ]; then
    echo "$fmt_out" | head -40 >&2
    if [ "${LINT_STRICT_FORMAT:-0}" = "1" ]; then
      fail "clang-format reported violations (strict mode)"
    else
      echo "lint: NOTE: clang-format reported violations (informational;" \
           "set LINT_STRICT_FORMAT=1 to make fatal)" >&2
    fi
  fi
else
  echo "lint: clang-format not installed; skipping format check" >&2
fi

# ---- 6. lqs-verify static analysis ----------------------------------------
# Call-graph checks: Status results must be consulted, LQS_NOALLOC functions
# must stay allocation-free through every non-virtual chain, and the src/
# layer DAG must hold. The built-in frontend needs nothing beyond python3.
if command -v python3 >/dev/null 2>&1; then
  if ! python3 tools/lqs_verify/lqs_verify.py --root .; then
    fail "lqs-verify reported findings (detail above)"
  fi
else
  echo "lint: python3 not installed; skipping lqs-verify" >&2
fi

# ---------------------------------------------------------------------------
if [ "$failures" -gt 0 ]; then
  echo "lint: FAILED with $failures violation(s)" >&2
  exit 1
fi
echo "lint: OK"
