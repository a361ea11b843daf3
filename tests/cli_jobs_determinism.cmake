# Jobs-invariance check at the CLI level (driven by the cli_jobs_determinism
# ctest entry): the parallel replication driver must be a pure wall-clock
# optimisation — stdout and the run report's metrics JSON, Prometheus export
# and run-0 history must be byte-identical between --jobs 1 and --jobs 8,
# with and without a fault plan.  See docs/PERFORMANCE.md for the
# contract.
#
# Inputs: -DCLI=<path to experiment_cli> -DWORK_DIR=<scratch directory>

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
    "cli_jobs_determinism.cmake needs -DCLI=... and -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(check_identical label a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "${label} diverged between --jobs 1 and --jobs 8: ${a} vs ${b}")
  endif()
endfunction()

# Scenario 1: fault-free synchronous multi-run experiment (the faulted
# scenario below covers async).
set(base_args app=apsp graph=chain size=10 quorum=prob k=3 servers=8
    monotone=1 sync=1 runs=6 cap=5000 seed=5)
# Scenario 2: the same workload under an explicit fault plan (retries,
# fault metrics and the recorded history must all stay jobs-invariant).
# The plan's clauses are joined by \; so CMake passes them as ONE argument
# (a bare ; would split the list and drop every clause after the first).
set(fault_args app=apsp graph=chain size=10 quorum=prob k=3 servers=8
    monotone=1 sync=0 runs=4 cap=5000 seed=5
    "fault-plan=outage:2@5-60\;slow:1*4@10\;drop=0.02\;dup=0.01")

foreach(scenario base fault)
  foreach(jobs 1 8)
    set(dir "${WORK_DIR}/${scenario}_j${jobs}")
    file(MAKE_DIRECTORY "${dir}")
    execute_process(
      COMMAND "${CLI}" ${${scenario}_args} jobs=${jobs} "report=${dir}"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "experiment_cli ${scenario} jobs=${jobs} failed (rc=${rc})\n"
        "${out}\n${err}")
    endif()
    # Strip the "wrote ... to <path>" lines: the per-jobs scratch paths are
    # the one legitimate stdout difference.
    string(REGEX REPLACE "wrote [^\n]*\n" "" out "${out}")
    file(WRITE "${dir}/stdout.txt" "${out}")
  endforeach()
  set(d1 "${WORK_DIR}/${scenario}_j1")
  set(d8 "${WORK_DIR}/${scenario}_j8")
  check_identical("${scenario}: stdout" "${d1}/stdout.txt" "${d8}/stdout.txt")
  check_identical("${scenario}: metrics JSON"
                  "${d1}/metrics.json" "${d8}/metrics.json")
  check_identical("${scenario}: Prometheus export"
                  "${d1}/metrics.prom" "${d8}/metrics.prom")
  check_identical("${scenario}: op trace"
                  "${d1}/history.jsonl" "${d8}/history.jsonl")
endforeach()
