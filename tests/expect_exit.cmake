# Runs the command given after `--` and fails unless it exits with
# EXIT_CODE and, when OUTPUT_REGEX is set, its stdout plus stderr
# match OUTPUT_REGEX, and, when NOT_OUTPUT_REGEX is set, do not match
# it. A plain ctest passes only on exit status 0, and
# PASS_REGULAR_EXPRESSION replaces that check instead of adding to it.
#
#   cmake -DEXIT_CODE=<n> [-DOUTPUT_REGEX=<re>] [-DNOT_OUTPUT_REGEX=<re>]
#         -P expect_exit.cmake -- <command> [<arg>...]

set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()

execute_process(COMMAND ${cmd}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${rc}" STREQUAL "${EXIT_CODE}")
    message(FATAL_ERROR "exit status ${rc}, want ${EXIT_CODE}")
endif()
if(DEFINED OUTPUT_REGEX AND NOT "${out}${err}" MATCHES "${OUTPUT_REGEX}")
    message(FATAL_ERROR "output does not match '${OUTPUT_REGEX}'")
endif()
if(DEFINED NOT_OUTPUT_REGEX AND "${out}${err}" MATCHES "${NOT_OUTPUT_REGEX}")
    message(FATAL_ERROR "output matches '${NOT_OUTPUT_REGEX}'")
endif()
