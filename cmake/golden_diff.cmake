# Runs COMMAND and compares its stdout with the committed GOLDEN file; a
# difference fails with both paths named. A change that alters the output
# on purpose regenerates the golden by running the binary with its stdout
# redirected to GOLDEN, and says why.
#
#   cmake -DCOMMAND=<exe> -DGOLDEN=<file> -DOUTPUT=<file> -P golden_diff.cmake
execute_process(COMMAND ${COMMAND} OUTPUT_FILE ${OUTPUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${COMMAND} (${OUTPUT}) differs from ${GOLDEN}")
endif()
