#!/bin/sh
# Static-analysis wall for prodsort.  Runs, in order:
#
#   1. repo-local discipline greps (always available):
#      - every Machine::mutable_keys() / BlockMachine::mutable_block() /
#        ScheduleIR::add_phase() call site outside the machine
#        primitives and src/staticcheck must carry an
#        AUDITOR-EXEMPT(<reason>) comment on the call line or within the
#        five preceding lines — writes that bypass the audited
#        compare-exchange/merge-split path, or edits that invalidate a
#        schedule's proof-addressing canonical hash, need a stated
#        justification;
#      - no inline NOLINT / cppcheck-suppress in the sources: tidy noise
#        is tuned in .clang-tidy, cppcheck noise is baselined in
#        scripts/cppcheck-suppressions.txt (zero-scatter policy);
#      - no hand-written hash folds (`mix_i64(`, `mix64(h,`) in
#        src/**/*_report.cpp: a report hash goes through the struct's
#        declared field list (core/report_fields.hpp), so no field can
#        drop out of the replay gate unseen;
#      - no library sort or heap in src/core/host_merge.cpp
#        (`std::sort`, `std::stable_sort`, `std::priority_queue`,
#        `push_heap`, `pop_heap`): a counted host operation's count
#        feeds the virtual clock, so the code that defines it must be
#        in-tree, not a library's comparison pattern;
#      - no heap (`std::priority_queue`, `push_heap`, `pop_heap`) in
#        src/ outside src/service/event_queue.hpp: every discrete-event
#        loop takes its (time, kind, seq) order from the one EventQueue;
#      - no printf format in tools/ that holds both `-REPRO ` and `=%`
#        outside tools/repro_line.hpp: every replay line is printed by
#        the one writer from its struct's declared token list, so a
#        printed line always replays;
#   2. clang-format --dry-run -Werror over the C++ sources;
#   3. clang-tidy with the repo .clang-tidy over compile_commands.json;
#   4. cppcheck with the documented suppression baseline.
#
# Tools 2-4 are skipped with a notice when not installed (the container
# image has only gcc; CI installs them — see .github/workflows/ci.yml).
# Usage: scripts/lint.sh [build-dir]   (default: build, for clang-tidy's
# compile_commands.json; configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
set -u

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
status=0

note() { printf '%s\n' "$*"; }

cpp_sources() {
  find "$repo/src" "$repo/tools" "$repo/tests" "$repo/examples" \
    -name '*.cpp' -o -name '*.hpp' 2>/dev/null | sort
}

# ---- 1. discipline greps ------------------------------------------------

note "lint: checking mutable_keys/mutable_block/add_phase exemptions"
bad=0
for f in $(find "$repo/src" -name '*.cpp' -o -name '*.hpp' | sort); do
  case "$f" in
    # The machine primitives own the keys; the staticcheck analyses own
    # the schedule IR (recording and pruning are their job).
    */network/machine.*|*/network/block_machine.*|*/staticcheck/*) continue ;;
  esac
  lines=$(grep -n 'mutable_keys()\|mutable_block(\|add_phase(' "$f" |
          cut -d: -f1)
  [ -z "$lines" ] && continue
  for line in $lines; do
    start=$((line - 5))
    [ "$start" -lt 1 ] && start=1
    if ! sed -n "${start},${line}p" "$f" | grep -q 'AUDITOR-EXEMPT'; then
      note "lint: $f:$line: mutable_keys/mutable_block/add_phase call" \
           "bypasses the audited path without an AUDITOR-EXEMPT(<reason>)" \
           "comment"
      bad=1
    fi
  done
done
[ "$bad" -ne 0 ] && status=1

note "lint: checking for stray inline suppressions"
if grep -rn 'NOLINT\|cppcheck-suppress' "$repo/src" "$repo/tools" \
     "$repo/tests" "$repo/examples" --include='*.cpp' --include='*.hpp' \
     2>/dev/null; then
  note "lint: inline suppressions are not allowed; tune .clang-tidy or"
  note "lint: add to scripts/cppcheck-suppressions.txt with a reason"
  status=1
fi

note "lint: checking that report hashes fold the declared field lists"
# shellcheck disable=SC2046
if grep -n 'mix_i64(\|mix64(h,' $(find "$repo/src" -name '*_report.cpp' |
                                   sort); then
  note "lint: fold report fields through fields() and HashFold"
  note "lint: (core/report_fields.hpp), not by hand"
  status=1
fi

note "lint: checking that the host merge counts its own comparisons"
if grep -n \
     'std::sort\|std::stable_sort\|std::priority_queue\|push_heap\|pop_heap' \
     "$repo/src/core/host_merge.cpp"; then
  note "lint: src/core/host_merge.cpp must not use a library sort or heap:"
  note "lint: its comparison count is the virtual clock's, defined in-tree"
  status=1
fi

note "lint: checking that the event loops share one event queue"
if grep -rn 'std::priority_queue\|push_heap\|pop_heap' "$repo/src" \
     --include='*.cpp' --include='*.hpp' |
     grep -v "^$repo/src/service/event_queue.hpp:"; then
  note "lint: an event loop in src/ must order its events with EventQueue"
  note "lint: (src/service/event_queue.hpp), not with a heap of its own"
  status=1
fi

note "lint: checking that REPRO lines come from the one writer"
# shellcheck disable=SC2046
if grep -n -e '-REPRO .*=%' $(find "$repo/tools" -name '*.cpp' -o \
                                -name '*.hpp' | grep -v '/repro_line\.hpp$' |
                                sort); then
  note "lint: print a REPRO line with format_repro() over the struct's"
  note "lint: declared tokens (tools/repro_line.hpp), not with a format"
  status=1
fi

# ---- 2. clang-format ----------------------------------------------------

if command -v clang-format >/dev/null 2>&1; then
  note "lint: clang-format --dry-run"
  # shellcheck disable=SC2046
  if ! clang-format --dry-run -Werror $(cpp_sources); then
    status=1
  fi
else
  note "lint: clang-format not installed, skipping (CI runs it)"
fi

# ---- 3. clang-tidy ------------------------------------------------------

if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$build/compile_commands.json" ]; then
    note "lint: clang-tidy (this is slow)"
    # shellcheck disable=SC2046
    if ! clang-tidy -p "$build" --quiet \
         $(find "$repo/src" "$repo/tools" -name '*.cpp' | sort); then
      status=1
    fi
  else
    note "lint: no $build/compile_commands.json, skipping clang-tidy"
    note "lint: (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
  fi
else
  note "lint: clang-tidy not installed, skipping (CI runs it)"
fi

# ---- 4. cppcheck --------------------------------------------------------

if command -v cppcheck >/dev/null 2>&1; then
  note "lint: cppcheck"
  if ! cppcheck --std=c++20 --language=c++ --error-exitcode=1 \
       --enable=warning,performance,portability \
       --suppressions-list="$repo/scripts/cppcheck-suppressions.txt" \
       --inline-suppr --quiet -I "$repo/src" "$repo/src" "$repo/tools"; then
    status=1
  fi
else
  note "lint: cppcheck not installed, skipping (CI runs it)"
fi

if [ "$status" -eq 0 ]; then
  note "lint: OK"
else
  note "lint: FAILED"
fi
exit "$status"
