# Runs a tool, takes the first *-REPRO line it prints, and reruns the
# same tool with --repro and that line: the replay must exit 0.
#
#   cmake -DCOMMAND="<exe>;<arg>;..." [-DREPLAY_ARGS="<arg>;..."]
#         -P replay_line.cmake
#
# REPLAY_ARGS go before --repro, which takes the rest of the command
# line (a journaled STREAM-REPRO line needs --journal DIR).  Fails when
# the first run exits nonzero or prints no REPRO line, or when the
# replay exits nonzero.
execute_process(COMMAND ${COMMAND}
                OUTPUT_VARIABLE output
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with status ${status}")
endif()
string(REGEX MATCH "(^|\n)[A-Z]+-REPRO [^\n]*" line "${output}")
string(STRIP "${line}" line)
if(line STREQUAL "")
  message(FATAL_ERROR "${COMMAND} printed no REPRO line")
endif()
list(GET COMMAND 0 tool)
execute_process(COMMAND ${tool} ${REPLAY_ARGS} --repro "${line}"
                OUTPUT_VARIABLE replay
                ERROR_VARIABLE replay
                RESULT_VARIABLE status)
message("${line}\n${replay}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "the replay exited with status ${status}")
endif()
