# Runs one bench at 600 ASes, 6 samples per side and 2 trials, and fails
# unless its stdout is byte-identical to the committed golden file. The
# output is kept next to the binary as <bench>.out.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<expected.txt> -P tests/bench_golden.cmake
execute_process(COMMAND "${BENCH}" 600 6 2
                OUTPUT_FILE "${BENCH}.out" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} 600 6 2 failed: ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${BENCH}.out" RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${BENCH}.out")
  message(FATAL_ERROR "stdout of ${BENCH} 600 6 2 differs from ${GOLDEN}")
endif()
