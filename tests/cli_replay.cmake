# Replay-determinism check at the CLI level (driven by the cli_fault_replay
# ctest entry): run experiment_cli twice with the same --fault-plan and seed
# and require the metrics JSON of the two run reports to be byte-identical.
#
# Inputs: -DCLI=<path to experiment_cli> -DWORK_DIR=<scratch directory>

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "cli_replay.cmake needs -DCLI=... and -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

# The plan's clauses are joined by \; so CMake passes them as ONE argument
# (a bare ; would split the list and drop every clause after the first).
set(common_args
  app=apsp graph=chain size=10 quorum=prob k=3 servers=8
  monotone=1 sync=0 runs=1 cap=5000 seed=5
  "fault-plan=outage:2@5-60\;slow:1*4@10\;drop=0.02\;dup=0.01")

foreach(run a b)
  execute_process(
    COMMAND "${CLI}" ${common_args} "report=${WORK_DIR}/${run}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "experiment_cli run ${run} failed (rc=${rc})\n${out}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/a/metrics.json" "${WORK_DIR}/b/metrics.json"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
    "metrics JSON diverged between two runs with the same fault plan and "
    "seed: ${WORK_DIR}/a/metrics.json vs ${WORK_DIR}/b/metrics.json")
endif()
