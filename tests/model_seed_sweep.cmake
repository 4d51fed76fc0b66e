# Runs model_test once for each OIR_TEST_SEED in 1..16 (each run drives all
# of its page-size/step cells with that seed) and fails if any seed fails,
# naming every failing seed. Invoked by the model_seed_sweep ctest entry:
#   cmake -DMODEL_TEST=<path to model_test> -P model_seed_sweep.cmake
if(NOT MODEL_TEST)
  message(FATAL_ERROR "MODEL_TEST is not set")
endif()
set(failed "")
foreach(seed RANGE 1 16)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env OIR_TEST_SEED=${seed}
                          ${MODEL_TEST} --gtest_brief=1
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed ${seed})
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "model_test failed; repro: OIR_TEST_SEED=<seed> "
                      "model_test, for seed(s) ${failed}")
endif()
