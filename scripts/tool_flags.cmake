# Flag check for the command-line tools, run by ctest as `tool_flags`:
#
#   cmake -DSCENARIO_SWEEP=<bin> -DSCENARIOGEN=<bin> -DEXPLAIN=<bin>
#         -DDOCCHECK=<bin> -DDOCS=<docs/colog-reference.md>
#         -DWORK_DIR=<scratch dir> -P scripts/tool_flags.cmake
#
# A malformed numeric flag (non-numeric, negative or trailing garbage) must
# print the usage message and exit non-zero, never run with a silent 0.
# Likewise doccheck must fail a `//! solve objective=` or `//! expect ...
# rows=` directive whose number carries trailing garbage.

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
expect_usage("${SCENARIO_SWEEP}" --gate-gap abc --out "${out}")
expect_usage("${SCENARIO_SWEEP}" --gate-gap 1,10 --out "${out}")
if(EXISTS "${out}")
  message(FATAL_ERROR "scenario_sweep wrote ${out} despite a bad flag")
endif()
expect_usage("${SCENARIOGEN}" --count abc)
expect_usage("${SCENARIOGEN}" --app fts --scenario-seed -1)
expect_usage("${EXPLAIN}" --trace unused.trace --node abc)
expect_usage("${EXPLAIN}" --trace unused.trace --round -2)

# doccheck on the reference (which holds the knob table) plus a one-block
# fixture whose directives read `solve objective=${objective}` and
# `expect pick rows=${rows}`.
function(run_doccheck objective rows rc_var err_var)
  set(fixture "${WORK_DIR}/tool_flags_doccheck.md")
  file(WRITE "${fixture}" "```colog
goal minimize C in total(C).
var pick(I,V) forall slot(I) domain [0,1].
d1 total(SUM<C>) <- pick(I,V), weight(I,W), C==V*W.
//! fact slot(1)
//! fact slot(2)
//! fact weight(1, 3)
//! fact weight(2, 4)
//! solve objective=${objective}
//! expect pick rows=${rows}
```
")
  execute_process(
    COMMAND "${DOCCHECK}" "${DOCS}" "${fixture}"
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  set(${rc_var} ${rc} PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

run_doccheck(0 2 rc err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "doccheck rejects a well-formed fixture: ${err}")
endif()
foreach(bad "0;2x" "0x;2")
  list(GET bad 0 objective)
  list(GET bad 1 rows)
  run_doccheck(${objective} ${rows} rc err)
  if(rc EQUAL 0 OR NOT err MATCHES "unparseable")
    message(FATAL_ERROR
            "doccheck objective=${objective} rows=${rows}: exit ${rc}, "
            "stderr: ${err}")
  endif()
endforeach()
