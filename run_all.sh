#!/bin/sh
# Build, test, and regenerate every table/figure. See EXPERIMENTS.md for
# how to read the outputs.
#
#   ./run_all.sh                 normal build + tests + benches
#   ./run_all.sh --asan          ASan+UBSan build (separate build dir) + tests
#   ./run_all.sh --tsan          TSan build (separate build dir) + tests
#   ./run_all.sh --chaos         ASan build + the chaos suite only: audit
#                                fuzz under bit-flip + allocation-failure
#                                injection, and the oops/quarantine death
#                                tests (graceful degradation end to end)
#   ./run_all.sh --huge          the translation-reach suite only: huged
#                                collapse/split tests, the huge audit-fuzz
#                                cases, and the promotion-policy bench
#   ./run_all.sh --golden        the golden sweep into results/: every bench
#                                smoked, every scenarios/*.scn, and the
#                                named-config sweep of bench_fig10 and
#                                bench_table4; then diffs results/ against
#                                ci/bench-baseline (exit 1 on any diff)
#   ./run_all.sh --jobs N        worker threads per bench (default: cores)
#   ./run_all.sh --json-out DIR  write BENCH_<name>.json files into DIR
#   ./run_all.sh --smoke         reduced footprints (CI-sized runs)
set -e

JOBS=""
JSON_OUT=""
SMOKE=""
GOLDEN=""
while [ $# -gt 0 ]; do
  case "$1" in
    --asan)
      cmake -B build-asan -G Ninja -DSAT_SANITIZE=ASAN
      cmake --build build-asan
      ctest --test-dir build-asan --output-on-failure
      exit 0
      ;;
    --tsan)
      cmake -B build-tsan -G Ninja -DSAT_SANITIZE=TSAN
      cmake --build build-tsan
      ctest --test-dir build-tsan --output-on-failure
      exit 0
      ;;
    --chaos)
      cmake -B build-asan -G Ninja -DSAT_SANITIZE=ASAN
      cmake --build build-asan
      ctest --test-dir build-asan --output-on-failure \
        -R '_chaos|OopsRecovery|InvariantDeath|Watchdog|ScrubRepairsRottenLargeReplica|ScrubSweepVotesRottenWords|ScrubTest'
      exit 0
      ;;
    --huge)
      cmake -B build -G Ninja
      cmake --build build
      ctest --test-dir build --output-on-failure -R 'Huge|_huge'
      ./build/bench/bench_largepage --smoke
      exit 0
      ;;
    --golden)
      GOLDEN=1
      ;;
    --jobs)
      JOBS="--jobs $2"
      shift
      ;;
    --json-out)
      JSON_OUT="$2"
      shift
      ;;
    --smoke)
      SMOKE="--smoke"
      ;;
    *)
      echo "unknown option: $1" >&2
      exit 2
      ;;
  esac
  shift
done

cmake -B build -G Ninja
cmake --build build

if [ -n "$GOLDEN" ]; then
  # Simulated metrics are bit-identical at any --jobs value, so every file
  # written here must match its ci/bench-baseline counterpart exactly.
  rm -rf results
  mkdir -p results/scenarios
  # bench_scenario runs once, below, into results/scenarios/.
  # shellcheck disable=SC2086  # JOBS is a deliberate word list
  for b in build/bench/bench_*; do
    [ "$b" = build/bench/bench_scenario ] && continue
    echo "== $b =="
    "$b" --smoke $JOBS --json-out results
  done
  # shellcheck disable=SC2086
  ./build/bench/bench_scenario --smoke $JOBS --json-out results/scenarios \
      scenarios/*.scn
  for cfg in stock stock-2mb shared-ptp shared-ptp-2mb shared-ptp-tlb \
      shared-ptp-tlb-2mb copied-ptes huge numa; do
    mkdir -p "results/config-$cfg"
    # shellcheck disable=SC2086
    ./build/bench/bench_fig10 --smoke $JOBS --config "$cfg" \
        --json-out "results/config-$cfg"
    # shellcheck disable=SC2086
    ./build/bench/bench_table4 --smoke $JOBS --config "$cfg" \
        --json-out "results/config-$cfg"
  done
  python3 tools/bench_diff.py ci/bench-baseline results
  exit 0
fi

ctest --test-dir build --output-on-failure

BENCH_FLAGS="$JOBS $SMOKE"
if [ -n "$JSON_OUT" ]; then
  mkdir -p "$JSON_OUT"
  BENCH_FLAGS="$BENCH_FLAGS --json-out $JSON_OUT"
fi
# shellcheck disable=SC2086  # BENCH_FLAGS is a deliberate word list
for b in build/bench/bench_*; do "$b" $BENCH_FLAGS; done
