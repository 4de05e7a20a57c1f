# Extra ctest labels, applied after gtest test discovery.
#
# gtest_discover_tests() cannot carry a multi-label set through PROPERTIES:
# the ';' inside the value is flattened into separate arguments by the
# build-time discovery script, so `LABELS "fast;pdes"` silently degraded to
# `LABELS fast` and `ctest -L pdes` matched nothing.  This file is appended
# to the directory's TEST_INCLUDE_FILES (after the discovery includes, which
# define each binary's <target>_TESTS list) and re-applies the full label
# sets at ctest time, where quoted list values survive intact.
foreach(t IN LISTS pdes_invariance_test_TESTS shard_group_test_TESTS)
  set_tests_properties("${t}" PROPERTIES LABELS "fast;pdes")
endforeach()
foreach(t IN LISTS alloc_guard_test_TESTS)
  if(t MATCHES "^PdesAllocGuardTest\\.")
    set_tests_properties("${t}" PROPERTIES LABELS "fast;pdes")
  endif()
endforeach()
# The migration suite moves VM bundles between shard workers inside fabric
# calls, so the TSan job's `-L pdes` run covers it too.
foreach(t IN LISTS atcsim_tests_TESTS)
  if(t MATCHES "^MigrationTest\\.")
    set_tests_properties("${t}" PROPERTIES LABELS "fast;pdes")
  endif()
endforeach()
foreach(t IN LISTS descriptor_fuzz_test_TESTS)
  set_tests_properties("${t}" PROPERTIES LABELS "slow;fuzz;pdes")
endforeach()
foreach(t IN LISTS claims_test_TESTS)
  set_tests_properties("${t}" PROPERTIES LABELS "slow;claims")
endforeach()
