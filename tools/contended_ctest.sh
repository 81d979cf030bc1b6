#!/usr/bin/env bash
# Runs ctest entries repeatedly on a contended host: one busy-loop co-tenant
# process per CPU (nproc of them) spins for the whole session, so
# every suite runs with its threads competing for cores the way they do next
# to a loaded neighbour. The co-tenants are killed on exit, however the script
# ends.
#
#   tools/contended_ctest.sh <build-dir> <regex> <runs>
#
# e.g. WDG_CHAOS_SEED=1592598566 tools/contended_ctest.sh build driver_chaos 20
#
# Prints the pass count of every matching suite over <runs> runs and exits
# nonzero if any run of any suite failed. Environment (such as
# WDG_CHAOS_SEED) passes through to the tests.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <build-dir> <regex> <runs>" >&2
  exit 2
fi
build_dir=$1 regex=$2 runs=$3
spinners=$(nproc)

pids=()
cleanup() {
  if (( ${#pids[@]} > 0 )); then
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
  fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for (( i = 0; i < spinners; ++i )); do
  bash -c 'while :; do :; done' &
  pids+=($!)
done
echo "contended_ctest: ${spinners} co-tenant spinners (one per CPU)," \
     "${runs} runs of -R '${regex}'"

declare -A passed=() total=()
for (( run = 1; run <= runs; ++run )); do
  out=$(ctest --test-dir "${build_dir}" -R "${regex}" --output-on-failure 2>&1) \
    || true
  # Result lines look like "1/3 Test #19: driver_chaos_test ....   Passed".
  while read -r name verdict; do
    total[${name}]=$(( ${total[${name}]:-0} + 1 ))
    if [[ ${verdict} == Passed ]]; then
      passed[${name}]=$(( ${passed[${name}]:-0} + 1 ))
    else
      echo "--- run ${run}: ${name} ${verdict} ---"
      printf '%s\n' "${out}"
    fi
  done < <(printf '%s\n' "${out}" | sed -nE \
      's/^ *[0-9]+\/[0-9]+ Test +#[0-9]+: ([^ ]+) \.*[ *]*([A-Za-z]+).*/\1 \2/p')
done

if (( ${#total[@]} == 0 )); then
  echo "contended_ctest: no test matched -R '${regex}'" >&2
  exit 2
fi
status=0
for name in $(printf '%s\n' "${!total[@]}" | sort); do
  echo "${name}: ${passed[${name}]:-0}/${total[${name}]} passed"
  if (( ${passed[${name}]:-0} != total[${name}] )); then
    status=1
  fi
done
exit "${status}"
