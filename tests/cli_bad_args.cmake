# Usage-error check (driven by the cli_bad_args ctest entry): experiment_cli
# must exit 2 on input the selected app does not understand, naming the
# offending key, before any run starts — so no output file is written.
#
# Inputs: -DCLI=<path to experiment_cli> -DWORK_DIR=<scratch directory>

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "cli_bad_args.cmake needs -DCLI=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs experiment_cli with ARGN plus a metrics export, and requires exit 2
# with an error naming ${key}.
function(expect_usage_error label key)
  execute_process(
    COMMAND "${CLI}" ${ARGN} "metrics-out=${WORK_DIR}/${label}.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "${label}: expected exit 2, got ${rc}\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${key}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label}: the error does not name '${key}':\n${err}")
  endif()
endfunction()

expect_usage_error(not_a_number size app=apsp size=abc)
expect_usage_error(unknown_flag chrome-out app=apsp size=8
                   --chrome-out "${WORK_DIR}/x.json")
expect_usage_error(negative_runs runs app=apsp size=8 runs=-1)
expect_usage_error(store_not_a_number theta app=store theta=0.8x)
expect_usage_error(avail_unknown_key trace-out app=avail
                   "trace-out=${WORK_DIR}/trace.jsonl")

file(GLOB written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "rejected invocations wrote files: ${written}")
endif()
