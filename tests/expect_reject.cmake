# Runs EXE on INPUT and passes only when it exits with status 1 and its
# output contains MESSAGE:
#   cmake -DEXE=<program> -DINPUT=<file> -DMESSAGE=<text> -P expect_reject.cmake
execute_process(COMMAND "${EXE}" "${INPUT}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${status}':\n${out}")
endif()
string(FIND "${out}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "expected '${MESSAGE}' in the output:\n${out}")
endif()
message(STATUS "${out}")
