# Runs `REPORT --quick --append` on a copy of HISTORY whose final "}" line
# is missing, and fails unless the report exits non-zero and leaves the
# copy byte-for-byte unchanged.  Invoked by ctest (see CMakeLists.txt):
#   cmake -DREPORT=<sched_report> -DHISTORY=<BENCH_*.json> -DWORK_DIR=<dir>
#         -P append_refusal_test.cmake
file(READ "${HISTORY}" full)
string(REGEX REPLACE "}\n$" "" truncated "${full}")
if(truncated STREQUAL full)
  message(FATAL_ERROR "${HISTORY} does not end in a closing '}' line")
endif()
set(copy "${WORK_DIR}/append_refusal_history.json")
file(WRITE "${copy}" "${truncated}")
execute_process(
  COMMAND "${REPORT}" --quick --label refusal --append "${copy}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "report exited 0 on a truncated history file")
endif()
file(READ "${copy}" after)
if(NOT after STREQUAL truncated)
  message(FATAL_ERROR "report modified the truncated history file")
endif()
