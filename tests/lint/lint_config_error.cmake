# Negative test (driven by the lint_config_error ctest entry): a malformed
# config must make pqra_lint exit 2 — not 0 (silently unprotected) and not 1
# (mistaken for real findings) — with a file:line TOML diagnostic on stderr.
#
# Inputs: -DLINT=<pqra_lint binary> -DSRC_DIR=<tests/lint source dir>
#         -DWORK_DIR=<scratch dir>

if(NOT LINT OR NOT SRC_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "lint_config_error.cmake needs -DLINT=... -DSRC_DIR=... -DWORK_DIR=...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_config_error toml_text pattern)
  file(WRITE "${WORK_DIR}/bad.toml" "${toml_text}")
  execute_process(
    COMMAND "${LINT}" --config "${WORK_DIR}/bad.toml" fixtures/bad_rng.cpp
    WORKING_DIRECTORY "${SRC_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "malformed config exited ${rc}, expected 2\nconfig:\n${toml_text}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
      "stderr did not carry the expected file:line diagnostic\n"
      "config:\n${toml_text}\nwanted match: ${pattern}\nstderr:\n${err}")
  endif()
endfunction()

# Unknown rule name: the section header is line 2.
expect_config_error("# comment\n[rule.no-such-rule]\nallow = []\n"
                    "bad\\.toml:2: unknown rule")
# Unterminated array: the opening line is named.
expect_config_error("[lint]\nextensions = [\".cpp\"\n"
                    "bad\\.toml:2: ")
# Key outside any section.
expect_config_error("allow = []\n"
                    "bad\\.toml:1: ")
# Text after an array's closing ']' is not dropped.
expect_config_error(
  "[rule.determinism-rng]\nallow = [\"fixtures/bad_rng.cpp\"] \"junk\"\n"
  "bad\\.toml:2: ")
# A bare value is one string, not a list.
expect_config_error(
  "[rule.determinism-rng]\nallow = \"fixtures/bad_rng.cpp\", \"x\"\n"
  "bad\\.toml:2: ")
# A multi-line array ends at its ']'; text after it is named on that line.
expect_config_error(
  "[rule.determinism-rng]\nallow = [\n  \"fixtures/bad_rng.cpp\",\n] x\n"
  "bad\\.toml:4: ")
# Nothing but a comment may follow a section header.
expect_config_error("[lint] extensions = [\".cpp\"]\n"
                    "bad\\.toml:1: ")
# Missing file entirely.
execute_process(
  COMMAND "${LINT}" --config "${WORK_DIR}/no_such_file.toml"
          fixtures/bad_rng.cpp
  WORKING_DIRECTORY "${SRC_DIR}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "missing config exited ${rc}, expected 2\n${err}")
endif()
# A directory is no config (it would read as an empty one).
execute_process(
  COMMAND "${LINT}" --config "${WORK_DIR}" fixtures/bad_rng.cpp
  WORKING_DIRECTORY "${SRC_DIR}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "directory as config exited ${rc}, expected 2\n${err}")
endif()
