# Runs BIN with a malformed numeric value for --FLAG and fails unless the
# program reports it as a usage error: exit status 2 and a "bad value" line
# on stderr (never an uncaught-exception abort).
#
#   cmake -DBIN=<program> -DFLAG=<option name> -P expect_usage_error.cmake
execute_process(COMMAND "${BIN}" "--${FLAG}" "abc"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${BIN} --${FLAG} abc: expected exit 2, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "bad value 'abc' for --${FLAG}")
  message(FATAL_ERROR "${BIN} --${FLAG} abc: no usage line on stderr:\n${err}")
endif()
