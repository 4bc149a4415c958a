# Runs PROGRAM and fails unless it exits 0 with stdout equal to the file
# EXPECTED, byte for byte.
#   cmake -DPROGRAM=<binary> -DEXPECTED=<file> -P run_golden.cmake
execute_process(COMMAND ${PROGRAM}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${exit_code}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${EXPECTED}; "
                      "it printed:\n${actual}")
endif()
