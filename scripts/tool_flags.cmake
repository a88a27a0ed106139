# Flag check for the command-line tools, run by ctest as `tool_flags`:
#
#   cmake -DSCENARIO_SWEEP=<bin> -DSCENARIOGEN=<bin> -DEXPLAIN=<bin>
#         -DWORK_DIR=<scratch dir> -P scripts/tool_flags.cmake
#
# A malformed integer flag (non-numeric, negative or trailing garbage) must
# print the usage message and exit non-zero, never run with a silent 0.

function(expect_usage)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(rc EQUAL 0 OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "${ARGN}: exit ${rc}, stderr: ${err}")
  endif()
endfunction()

set(out "${WORK_DIR}/tool_flags_scenarios.json")
file(REMOVE "${out}")
expect_usage("${SCENARIO_SWEEP}" --count abc --out "${out}")
expect_usage("${SCENARIO_SWEEP}" --count -3 --out "${out}")
expect_usage("${SCENARIO_SWEEP}" --seed 12x --out "${out}")
if(EXISTS "${out}")
  message(FATAL_ERROR "scenario_sweep wrote ${out} despite a bad flag")
endif()
expect_usage("${SCENARIOGEN}" --count abc)
expect_usage("${SCENARIOGEN}" --app fts --scenario-seed -1)
expect_usage("${EXPLAIN}" --trace unused.trace --node abc)
expect_usage("${EXPLAIN}" --trace unused.trace --round -2)
