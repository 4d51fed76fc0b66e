# Empties the ctest scratch directory (flight bundles and gtest TempDir
# files) so it holds only what the current run leaves. Invoked by the
# clear_test_tmp ctest entry, the setup of the oir_test_tmp fixture that
# every test requires:
#   cmake -DDIR=<OIR_TEST_TMP> -P clear_test_tmp.cmake
if(NOT DIR)
  message(FATAL_ERROR "DIR is not set")
endif()
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
