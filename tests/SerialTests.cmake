# Included by ctest after the discovered gtest list.  Tests here measure
# how the runtime's forked workers are scheduled, which other tests'
# workers running on the same CPUs would change, so ctest -j runs them
# alone.
set_tests_properties(
  Doacross.ScalarCarryHandsTokensOverWithoutParking
  PROPERTIES RUN_SERIAL TRUE)
