# Runs EXE with the space-separated ARGS and fails unless it exits with
# status 2 (a rejected command line) and its stderr contains EXPECT.
#
#   cmake -DEXE=<tool> -DARGS="<args>" -DEXPECT="<text>" -P ExpectUsageError.cmake
separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${ArgList}
                RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "2")
  message(FATAL_ERROR "exit status '${Rc}', want 2\nstdout: ${Out}\nstderr: ${Err}")
endif()
string(FIND "${Err}" "${EXPECT}" Pos)
if(Pos EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}'\nstderr: ${Err}")
endif()
