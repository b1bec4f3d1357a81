# Feeds bench_to_json a console table from a --benchmark_repetitions=3 run
# and fails unless the repeated benchmark is recorded once, from its median,
# while a single-run row passes through unchanged.
#
#   cmake -DBIN=<bench_to_json> -DWORK=<scratch dir> -P bench_to_json_medians.cmake
file(MAKE_DIRECTORY "${WORK}")
set(input "${WORK}/medians_input.txt")
set(output "${WORK}/medians_out.json")
file(REMOVE "${output}")
file(WRITE "${input}" "\
BM_Repeated/8        30.0 ms         29.0 ms            4 visits=10
BM_Repeated/8        10.0 ms          9.0 ms            4 visits=10
BM_Repeated/8        20.0 ms         19.0 ms            4 visits=10
BM_Repeated/8_mean         20.0 ms         19.0 ms            3 visits=10
BM_Repeated/8_median       20.0 ms         19.0 ms            3 visits=10
BM_Repeated/8_stddev       10.0 ms         10.0 ms            3 visits=0
BM_Repeated/8_cv           50.00 %         52.63 %            3 visits=0.00%
BM_Single                 5.00 us          5.00 us         1000 allocs_per_iter=0
")
execute_process(COMMAND "${BIN}" --label medians --in "${input}" --out "${output}"
                RESULT_VARIABLE status ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "bench_to_json failed (${status}):\n${err}")
endif()
file(READ "${output}" json)
set(want_repeated "\"BM_Repeated/8\": {\"real_time_ms\": 20, \"cpu_time_ms\": 19, \"iterations\": 4, \"repetitions\": 3, \"counters\": {\"visits\": 10}}")
set(want_single "\"BM_Single\": {\"real_time_ms\": 0.005, \"cpu_time_ms\": 0.005, \"iterations\": 1000, \"counters\": {\"allocs_per_iter\": 0}}")
foreach(want IN ITEMS "${want_repeated}" "${want_single}")
  string(FIND "${json}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing row ${want} in:\n${json}")
  endif()
endforeach()
foreach(dropped IN ITEMS "_mean" "_median" "_stddev" "_cv")
  string(FIND "${json}" "${dropped}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "aggregate row ${dropped} recorded:\n${json}")
  endif()
endforeach()
