# Jobs-invariance check for the sharded multi-key store app (driven by the
# cli_multikey_determinism ctest entry): on a mixed-key Zipfian workload —
# fault-free and under a key-addressed fault plan — stdout and the run
# report's metrics JSON, Prometheus export, run-0 history and causal spans
# (every op sampled) must be byte-identical between --jobs 1 and --jobs 8.  See docs/SHARDING.md and
# docs/PERFORMANCE.md for the contract.
#
# Inputs: -DCLI=<path to experiment_cli> -DWORK_DIR=<scratch directory>

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
    "cli_multikey_determinism.cmake needs -DCLI=... and -DWORK_DIR=...")
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

# Scenario 1: fault-free mixed-key workload, Zipf-skewed reads, sharded
# onto 3-replica consistent-hash groups.
set(base_args app=store keys=512 theta=0.7 servers=12 replicas=3 k=2
    vnodes=8 clients=4 ops=60 runs=4 seed=9 span-sample=1)
# Scenario 2: the same workload under a fault plan with key-addressed
# targets (crash:k5 = "crash key 5's primary replica") plus a node outage
# and message drops — retries, fault metrics and the recorded histories
# must all stay jobs-invariant.
# The plan's clauses are joined by \; so CMake passes them as ONE argument
# (a bare ; would split the list and drop every clause after the first).
set(fault_args app=store keys=512 theta=0.7 servers=12 replicas=3 k=2
    vnodes=8 clients=4 ops=60 runs=3 seed=9 span-sample=1
    "fault-plan=crash:k5@20\;recover:k5@120\;outage:2@40-90\;drop=0.01")

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
        "experiment_cli store ${scenario} jobs=${jobs} failed (rc=${rc})\n"
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
  check_identical("${scenario}: spans"
                  "${d1}/spans.jsonl" "${d8}/spans.jsonl")
endforeach()
