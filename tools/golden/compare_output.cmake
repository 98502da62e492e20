# Runs a tool and compares its standard output with a checked-in golden
# file, after deleting every line that starts with DROP (a line that
# measures wall time and so varies from run to run).  DROP is optional:
# without it the whole output is compared.
#
#   cmake -DCOMMAND="<exe>;<arg>;..." [-DDROP=<prefix>] -DGOLDEN=<file>
#         -DACTUAL=<file> -P compare_output.cmake
#
# Fails when the tool exits nonzero or any kept line differs.  The kept
# output is written to ACTUAL, so a failure can be inspected with
# `diff GOLDEN ACTUAL`.  To accept a deliberate change, copy ACTUAL over
# GOLDEN.
execute_process(COMMAND ${COMMAND}
                OUTPUT_VARIABLE output
                RESULT_VARIABLE status)
if(DROP)
  string(REGEX REPLACE "(^|\n)${DROP}[^\n]*\n" "\\1" output "${output}")
endif()
file(WRITE "${ACTUAL}" "${output}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with status ${status}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT output STREQUAL golden)
  message(FATAL_ERROR "output differs from ${GOLDEN}\n"
                      "inspect with: diff ${GOLDEN} ${ACTUAL}")
endif()
