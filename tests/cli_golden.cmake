# Cross-commit pin of experiment_cli's store and availability output (driven
# by the cli_golden ctest entry): each configuration below runs once, and its
# stdout (minus the "wrote ... to <path>" lines), exit status and the metrics
# JSON of its run report must equal the goldens in tests/golden/cli/.  The cli_*_determinism
# tests only compare one build against itself across --jobs values; this one
# catches a change that moves a schedule, a tally or a counter.
#
# Inputs: -DCLI=<path to experiment_cli> -DGOLDEN_DIR=<tests/golden/cli>
#         -DWORK_DIR=<scratch directory>
#         -DUPDATE=1 rewrites the goldens from this build instead of checking
#         (for a change that moves the output on purpose; say why in the
#         commit that re-pins).

if(NOT CLI OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "cli_golden.cmake needs -DCLI=... -DGOLDEN_DIR=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures "")

# Runs experiment_cli with ARGN plus a run report and compares (or, with
# UPDATE, rewrites) the three pinned artifacts of ${label}: stdout, exit
# status and the report's metrics.json.
function(golden label)
  execute_process(
    COMMAND "${CLI}" ${ARGN} jobs=1 "report=${WORK_DIR}/${label}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(REGEX REPLACE "wrote [^\n]*\n" "" out "${out}")
  file(WRITE "${WORK_DIR}/${label}.stdout" "${out}")
  file(WRITE "${WORK_DIR}/${label}.rc" "${rc}\n")
  file(COPY_FILE "${WORK_DIR}/${label}/metrics.json"
       "${WORK_DIR}/${label}.metrics.json")
  if(UPDATE)
    foreach(ext stdout rc metrics.json)
      file(COPY_FILE "${WORK_DIR}/${label}.${ext}"
           "${GOLDEN_DIR}/${label}.${ext}")
    endforeach()
    return()
  endif()
  foreach(ext rc stdout metrics.json)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${GOLDEN_DIR}/${label}.${ext}" "${WORK_DIR}/${label}.${ext}"
      RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      string(APPEND failures "\n  ${label}: ${ext} differs from "
             "${GOLDEN_DIR}/${label}.${ext} (got ${WORK_DIR}/${label}.${ext})")
      set(failures "${failures}" PARENT_SCOPE)
      return()
    endif()
  endforeach()
endfunction()

# app=store on 3-replica consistent-hash groups: fault-free, under churn, and
# under a key-addressed plan (crash:k5 = "crash key 5's primary").  The
# plan's clauses are joined by \; so CMake passes them as one argument.
set(store3 app=store keys=300 theta=0.7 servers=10 replicas=3 k=2 vnodes=8
    clients=3 ops=40 runs=2 seed=9)
golden(store_r3 ${store3})
golden(store_r3_churn ${store3} churn=0.3)
golden(store_r3_plan ${store3}
       "fault-plan=crash:k5@20\;recover:k5@120\;outage:2@40-90\;drop=0.01")

# app=store with full replication (replicas=0), fault-free and under churn.
set(store0 app=store keys=200 theta=0 servers=6 replicas=0 k=2 clients=3
    ops=40 runs=2 seed=4)
golden(store_r0 ${store0})
golden(store_r0_churn ${store0} churn=0.3)

# app=avail in each recovery mode, at the defaults (the claim holds, exit 0)
# and at a small, heavily churned size where it fails (exit 1).
foreach(recovery memory amnesia wal)
  golden(avail_${recovery} app=avail recovery=${recovery})
  golden(avail_small_${recovery} app=avail recovery=${recovery} servers=10
         k=3 churn=0.5 horizon=1500 runs=2 seed=2)
endforeach()

if(failures)
  message(FATAL_ERROR "experiment_cli output moved:${failures}")
endif()
