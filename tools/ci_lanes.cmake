# Guard for the CI lanes (tools/ci/<lane>.sh, one script per CI job):
#   1. every tools/ci/*.sh must pass `bash -n` (parses as bash);
#   2. every lane .github/workflows/ci.yml runs (a name in a `lane: [...]`
#      matrix, run as tools/ci/${{ matrix.lane }}.sh) must have its script.
# Driven by ctest; see tools/CMakeLists.txt.
foreach(var BASH ROOT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ci_lanes.cmake needs -D${var}=...")
  endif()
endforeach()

file(GLOB scripts "${ROOT}/tools/ci/*.sh")
if(NOT scripts)
  message(FATAL_ERROR "no scripts under ${ROOT}/tools/ci")
endif()
foreach(script ${scripts})
  execute_process(COMMAND "${BASH}" -n "${script}"
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bash -n ${script} failed (exit ${rc}):\n${err}")
  endif()
endforeach()

file(READ "${ROOT}/.github/workflows/ci.yml" workflow)
string(FIND "${workflow}" "tools/ci/\${{ matrix.lane }}.sh" runs_lanes)
string(REGEX MATCHALL "lane: \\[[^]]*\\]" matrices "${workflow}")
if(runs_lanes EQUAL -1 OR NOT matrices)
  message(FATAL_ERROR "ci.yml runs no tools/ci/\${{ matrix.lane }}.sh "
                      "from a `lane: [...]` matrix")
endif()
set(lanes "")
foreach(matrix ${matrices})
  string(REGEX REPLACE "^lane: \\[|\\]$" "" matrix "${matrix}")
  string(REGEX REPLACE "[ \n,]+" ";" names "${matrix}")
  list(APPEND lanes ${names})
endforeach()
list(REMOVE_ITEM lanes "")
foreach(name ${lanes})
  if(NOT EXISTS "${ROOT}/tools/ci/${name}.sh")
    message(FATAL_ERROR "ci.yml runs lane ${name} but tools/ci/${name}.sh "
                        "does not exist")
  endif()
endforeach()
list(LENGTH lanes count)
message(STATUS "ci_lanes passed: ${count} lanes in ci.yml, all scripts "
               "parse")
