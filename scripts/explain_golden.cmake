# Golden check for tools/explain, run by ctest as `explain_golden`:
#
#   cmake -DEXPLAIN=<explain binary> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch dir> -P scripts/explain_golden.cmake
#
# 1. The canonical binding-constraint query on the obs golden trace must
#    print tests/golden/followsun_obs.explain byte for byte.
# 2. A trace whose second line nests 200,000 '[' must be rejected with a
#    ParseError (exit code 1), not crash.

execute_process(
  COMMAND "${EXPLAIN}" --trace "${GOLDEN_DIR}/followsun_obs.trace"
          --node 3 --round 4 --var "@3,@1"
  OUTPUT_VARIABLE got
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explain exited with ${rc}")
endif()
file(READ "${GOLDEN_DIR}/followsun_obs.explain" want)
if(NOT got STREQUAL want)
  file(WRITE "${WORK_DIR}/explain_golden.out" "${got}")
  message(FATAL_ERROR
    "explain output differs from followsun_obs.explain; got "
    "${WORK_DIR}/explain_golden.out (diff -u it against the golden)")
endif()

string(REPEAT "[" 200000 deep)
file(WRITE "${WORK_DIR}/explain_deep.trace"
  "{\"ev\":\"header\",\"program\":\"p\",\"seed\":1}\n${deep}\n")
execute_process(
  COMMAND "${EXPLAIN}" --trace "${WORK_DIR}/explain_deep.trace" --list
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT err MATCHES "ParseError: line 2: byte")
  message(FATAL_ERROR
    "explain on a deeply nested line: exit ${rc}, stderr: ${err}")
endif()
