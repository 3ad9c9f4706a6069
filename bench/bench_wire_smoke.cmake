# bench_wire_smoke: one short pass of bench_wire with a JSON report. Fails
# unless the run exits 0 and the report holds exactly one case per
# registered benchmark. Google Benchmark calls a case function once per
# calibration run, so a report that appended every call would hold several
# cases per name, the early ones from a handful of iterations.
#
#   cmake -DBENCH_WIRE=<bench_wire> -DWORKDIR=<dir> -P bench_wire_smoke.cmake
set(report "${WORKDIR}/bench_wire_smoke.json")
file(REMOVE "${report}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env AG_BENCH_JSON=${report}
          ${BENCH_WIRE} --benchmark_min_time=0.001
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_wire exited ${rc}")
endif()

execute_process(COMMAND ${BENCH_WIRE} --benchmark_list_tests
                OUTPUT_VARIABLE listed RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_wire --benchmark_list_tests exited ${rc}")
endif()
string(REGEX MATCHALL "[^\n]+" benchmarks "${listed}")
list(LENGTH benchmarks expected)

# Case names as write_bench_json writes them: {"name": "<name>", ...}.
file(READ "${report}" json)
string(REGEX MATCHALL "{\"name\": \"[^\"]*\"" entries "${json}")
list(LENGTH entries cases)
set(seen "")
foreach(entry IN LISTS entries)
  string(REGEX REPLACE "^{\"name\": \"(.*)\"$" "\\1" name "${entry}")
  list(FIND seen "${name}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "case ${name} is reported more than once")
  endif()
  list(APPEND seen "${name}")
endforeach()
if(NOT cases EQUAL expected)
  message(FATAL_ERROR
    "report holds ${cases} cases for ${expected} registered benchmarks")
endif()
message(STATUS "bench_wire report: ${cases} cases, one per benchmark")
