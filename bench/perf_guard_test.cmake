# Runs scripts/perf_guard.py on two small histories and checks that it only
# compares against entries from the fresh entry's host class (host_cores):
#  1. two entries on different core counts -> a skip line naming both
#     counts, no warning (the 50% drop across classes must not be flagged);
#  2. a same-class baseline behind a more recent other-class entry -> the
#     comparison uses the same-class one.
# Invoked by ctest (see CMakeLists.txt):
#   cmake -DPYTHON=<python3> -DGUARD=<perf_guard.py> -DWORK_DIR=<dir>
#         -P perf_guard_test.cmake
function(run_guard name history expect reject)
  set(path "${WORK_DIR}/perf_guard_${name}.json")
  file(WRITE "${path}" "{\"schema\": 1, \"history\": [${history}]}\n")
  execute_process(
    COMMAND "${PYTHON}" "${GUARD}" "${path}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: perf_guard exited ${rc}: ${err}")
  endif()
  string(FIND "${out}" "${expect}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name}: expected '${expect}' in:\n${out}")
  endif()
  string(FIND "${out}" "${reject}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${name}: unexpected '${reject}' in:\n${out}")
  endif()
endfunction()

set(one "{\"label\": \"one\", \"host_cores\": 1, \"macro_x\": {\"per_sec\": 2000}}")
set(four_old "{\"label\": \"four\", \"host_cores\": 4, \"macro_x\": {\"per_sec\": 1050}}")
set(four_new "{\"label\": \"fresh\", \"host_cores\": 4, \"macro_x\": {\"per_sec\": 1000}}")

run_guard(cross_class "${one}, ${four_new}"
  "host_cores=4, latest earlier entry has host_cores=1" "::warning")
run_guard(same_class "${four_old}, ${one}, ${four_new}"
  "vs baseline 1050 ('four', host_cores=4)" "::warning")
