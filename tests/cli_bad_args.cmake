# Usage-error check (driven by the cli_bad_args ctest entry): experiment_cli
# must exit 2 on input the selected app does not understand, naming the
# offending key (or fault-plan clause), before any run starts — so no run
# report is written.
#
# Inputs: -DCLI=<path to experiment_cli> -DWORK_DIR=<scratch directory>

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "cli_bad_args.cmake needs -DCLI=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs experiment_cli with ARGN plus a run report, and requires exit 2 with
# an error naming ${key}.
function(expect_usage_error label key)
  execute_process(
    COMMAND "${CLI}" ${ARGN} "report=${WORK_DIR}/${label}"
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

# Values an app used to replace silently.
expect_usage_error(unknown_graph graph app=apsp size=8 graph=foo)
expect_usage_error(csp_reads_no_graph graph app=csp graph=foo size=6 runs=1)
expect_usage_error(avail_unknown_recovery recovery app=avail recovery=bogus)
expect_usage_error(avail_churn_too_big churn app=avail churn=1.5)
expect_usage_error(avail_churn_zero churn app=avail churn=0)
expect_usage_error(store_churn_too_big churn app=store keys=100 churn=1.5)
expect_usage_error(apsp_churn_preset churn app=apsp size=8 churn=1)
expect_usage_error(apsp_churn_negative churn app=apsp size=8 churn=-0.5)

# Fault plans the run cannot parse or install, named by their clause (a
# parse error quotes it as written; an uninstallable target quotes the
# parsed event's canonical form, in which 10 still reads 10).
expect_usage_error(plan_garbage_reorder "reorder=0.5:-3"
                   app=apsp size=6 "fault-plan=crash:1@5\;reorder=0.5:-3")
expect_usage_error(plan_fractional_id "crash:1.5@10"
                   app=apsp size=6 "fault-plan=crash:1.5@10")
expect_usage_error(plan_node_out_of_range "crash:99@10"
                   app=apsp size=6 "fault-plan=crash:99@10")
expect_usage_error(plan_partition_out_of_range "partition:0|20,21@5"
                   app=apsp size=6 "fault-plan=partition:0|20,21@5")
expect_usage_error(plan_key_target_outside_store "crash:k1@10"
                   app=apsp size=6 "fault-plan=crash:k1@10")
expect_usage_error(store_plan_node_out_of_range "crash:99@10"
                   app=store keys=100 servers=4 clients=2
                   "fault-plan=crash:99@10")
# Key 5's primary on this ring is node 0, already in the other group.
expect_usage_error(store_plan_key_in_two_groups "partition:0|0@5"
                   app=store keys=100 servers=4 clients=2
                   "fault-plan=partition:0|k5@5")

# Numbers outside what the app's constructors accept, named by their key
# (unchecked, each would reach a constructor's PQRA_REQUIRE and abort).
expect_usage_error(apsp_size_zero "for size:" app=apsp size=0)
expect_usage_error(tc_size_one "for size:" app=tc size=1)
expect_usage_error(apsp_k_zero "for k:" app=apsp size=6 k=0)
expect_usage_error(apsp_k_above_servers "for k:" app=apsp size=6 k=9)
expect_usage_error(apsp_no_servers "for servers:" app=apsp size=6 servers=0)
set(small_store app=store keys=50 servers=6 clients=2 ops=5)
expect_usage_error(store_k_zero "for k:" ${small_store} k=0)
expect_usage_error(store_horizon_nan "for horizon:" ${small_store} horizon=nan)
expect_usage_error(store_horizon_negative "for horizon:"
                   ${small_store} horizon=-5)
expect_usage_error(avail_no_servers "for servers:" app=avail servers=0)
expect_usage_error(avail_k_zero "for k:" app=avail k=0)
expect_usage_error(avail_k_above_servers "for k:" app=avail k=30)
expect_usage_error(avail_horizon_nan "for horizon:" app=avail horizon=nan)

# The six per-file export keys report=DIR replaced, on every app that read
# them.
foreach(retired metrics-out prom-out trace-out spans-out spans-chrome-out
        profile-out)
  expect_usage_error(apsp_${retired} "unknown option '${retired}'"
                     app=apsp size=8 "${retired}=${WORK_DIR}/${retired}")
endforeach()
foreach(retired metrics-out prom-out trace-out spans-out)
  expect_usage_error(store_${retired} "unknown option '${retired}'"
                     ${small_store} "${retired}=${WORK_DIR}/${retired}")
endforeach()
foreach(retired metrics-out prom-out)
  expect_usage_error(avail_${retired} "unknown option '${retired}'"
                     app=avail "${retired}=${WORK_DIR}/${retired}")
endforeach()

file(GLOB written "${WORK_DIR}/*")
if(written)
  message(FATAL_ERROR "rejected invocations wrote files: ${written}")
endif()
