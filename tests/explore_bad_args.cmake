# Usage-error check (driven by the explore_bad_args ctest entry): pqra_explore
# must exit 2 on a flag value that is not one whole, finite number in the
# flag's range, naming the flag, before any worker starts — so no metrics
# file is written.
#
# Inputs: -DEXPLORE=<path to pqra_explore> -DWORK_DIR=<scratch directory>

if(NOT EXPLORE OR NOT WORK_DIR)
  message(FATAL_ERROR
    "explore_bad_args.cmake needs -DEXPLORE=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs pqra_explore with ARGN plus a metrics export, and requires exit 2
# with an error naming ${flag}.  Accepted by mistake, each case would run a
# two-seed sweep, or for --minutes a time-boxed one that the ctest timeout
# cuts.
function(expect_usage_error label flag)
  execute_process(
    COMMAND "${EXPLORE}" --quiet ${ARGN}
            --metrics-out "${WORK_DIR}/${label}.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "${label}: expected exit 2, got ${rc}\n${out}\n${err}")
  endif()
  string(FIND "${err}" "for ${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label}: the error does not name '${flag}':\n${err}")
  endif()
endfunction()

# Negative counts (strtoull read -1 as 2^64 - 1).
expect_usage_error(negative_max_violations --max-violations
                   --seed-range 0:2 --max-violations -1)
expect_usage_error(negative_shrink_budget --shrink-budget
                   --seed-range 0:2 --shrink-budget -5)
expect_usage_error(negative_jobs --jobs --seed-range 0:2 --jobs -1)
expect_usage_error(negative_seed --seed-range --seed-range -1:2)
expect_usage_error(negative_minutes --minutes --minutes -1)

# Fractions.
expect_usage_error(fractional_jobs --jobs --seed-range 0:2 --jobs 1.5)
expect_usage_error(fractional_seed --seed-range --seed-range 0:2.5)
expect_usage_error(fractional_flightrec --flightrec
                   --seed-range 0:2 --flightrec 0.5)

# Values past 2^64.
expect_usage_error(overflowing_seed --seed-range
                   --seed-range 0:99999999999999999999999)
expect_usage_error(overflowing_start_seed --start-seed
                   --seed-range 0:2 --start-seed 99999999999999999999999)

# Non-finite reals (atof read inf as a sweep that never ends).
expect_usage_error(infinite_minutes --minutes --minutes inf)
expect_usage_error(nan_minutes --minutes --minutes nan)

# Trailing text.
expect_usage_error(trailing_max_violations --max-violations
                   --seed-range 0:2 --max-violations 3x)
expect_usage_error(trailing_minutes --minutes --minutes 1m)
expect_usage_error(trailing_seed --seed-range --seed-range 0:2x)

file(GLOB written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "rejected invocations wrote files: ${written}")
endif()
