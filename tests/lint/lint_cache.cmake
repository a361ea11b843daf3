# Per-file isolation check (driven by the lint_cache ctest entry): editing
# one file changes that file's diagnostics and nothing else — the new
# diagnostic surfaces, and every other file's diagnostics keep their text
# and order.
#
# Inputs: -DLINT=<pqra_lint binary> -DSRC_DIR=<tests/lint source dir>
#         -DWORK_DIR=<scratch dir>

if(NOT LINT OR NOT SRC_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "lint_cache.cmake needs -DLINT=... -DSRC_DIR=... -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(COPY "${SRC_DIR}/fixtures" DESTINATION "${WORK_DIR}")

function(run_lint out_var)
  execute_process(
    COMMAND "${LINT}" --config fixtures/lint.toml fixtures
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "expected exit 1 (fixtures contain violations), got ${rc}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Keeps only the diagnostic header lines ("path:line: [rule] ...") that do
# NOT belong to \p path — hint continuations and the trailing summary line
# are dropped — leaving the diagnostics of all *other* files.  (Hint text
# contains semicolons, so element-wise filtering of the raw output would be
# mangled by CMake's list splitting.)
function(strip_file_diags text path out_var)
  string(REPLACE ";" "<semi>" escaped "${text}")
  string(REPLACE "\n" ";" lines "${escaped}")
  set(kept "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[^ ].*:[0-9]+: \\[" AND NOT line MATCHES "^${path}:")
      list(APPEND kept "${line}")
    endif()
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
endfunction()

run_lint(before)

# Edit one file: a fresh violation must surface, everything else must stay.
file(APPEND "${WORK_DIR}/fixtures/bad_rng.cpp"
  "\nint extra_entropy() { return rand(); }\n")
run_lint(edited)
if(edited STREQUAL before)
  message(FATAL_ERROR "editing bad_rng.cpp changed nothing")
endif()
if(NOT edited MATCHES "bad_rng\\.cpp:[0-9]+: \\[determinism-rng\\] libc RNG `rand\\(\\)`")
  message(FATAL_ERROR
    "the appended rand() call was not flagged after the edit\n${edited}")
endif()
strip_file_diags("${before}" "fixtures/bad_rng.cpp" before_rest)
strip_file_diags("${edited}" "fixtures/bad_rng.cpp" edited_rest)
if(NOT before_rest STREQUAL edited_rest)
  message(FATAL_ERROR
    "editing bad_rng.cpp changed diagnostics of other files\n"
    "--- before ---\n${before_rest}\n--- after ---\n${edited_rest}")
endif()
