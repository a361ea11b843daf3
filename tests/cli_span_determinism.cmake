# Span determinism at the CLI level (driven by the cli_span_determinism
# ctest entry): the causal spans are recorded on run 0 only and their
# sampling decision is a pure function of (seed, proc, op), so the run
# report's span JSONL and Chrome trace must be byte-identical between
# --jobs 1 and --jobs 4, fault-free and under a fault plan (which exercises
# the retry / unanswered-RPC span paths).  See docs/OBSERVABILITY.md for the contract.
#
# Inputs: -DCLI=<path to experiment_cli> -DWORK_DIR=<scratch directory>

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
    "cli_span_determinism.cmake needs -DCLI=... and -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(check_identical label a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
      "${label} diverged between --jobs 1 and --jobs 4: ${a} vs ${b}")
  endif()
endfunction()

# Scenario 1: fault-free multi-run experiment, every op sampled.
set(base_args app=apsp graph=chain size=10 quorum=prob k=3 servers=8
    monotone=1 sync=1 runs=6 cap=5000 seed=5 span-sample=1)
# Scenario 2: the same workload under an explicit fault plan with sampling
# (retry-wait spans, unanswered RPCs, degraded closes must all replay).
# The plan's clauses are joined by \; so CMake passes them as ONE argument
# (a bare ; would split the list and drop every clause after the first).
set(fault_args app=apsp graph=chain size=10 quorum=prob k=3 servers=8
    monotone=1 sync=0 runs=4 cap=5000 seed=5 span-sample=3
    "fault-plan=outage:2@5-60\;slow:1*4@10\;drop=0.02\;dup=0.01")

foreach(scenario base fault)
  foreach(jobs 1 4)
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
  set(d4 "${WORK_DIR}/${scenario}_j4")
  check_identical("${scenario}: stdout" "${d1}/stdout.txt" "${d4}/stdout.txt")
  check_identical("${scenario}: span JSONL"
                  "${d1}/spans.jsonl" "${d4}/spans.jsonl")
  check_identical("${scenario}: span Chrome trace"
                  "${d1}/spans.chrome.json" "${d4}/spans.chrome.json")
endforeach()
