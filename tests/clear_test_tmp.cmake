# Starts the ctest scratch directory (flight bundles and gtest TempDir
# files) empty for the current run, keeping the previous run's contents in
# <DIR>.prev (one generation), so a failure's evidence survives the next
# run. Invoked by the clear_test_tmp ctest entry, the setup of the
# oir_test_tmp fixture that every test requires:
#   cmake -DDIR=<OIR_TEST_TMP> -P clear_test_tmp.cmake
if(NOT DIR)
  message(FATAL_ERROR "DIR is not set")
endif()
file(REMOVE_RECURSE ${DIR}.prev)
if(EXISTS ${DIR})
  file(RENAME ${DIR} ${DIR}.prev)
endif()
file(MAKE_DIRECTORY ${DIR})
