# Smoke test for the trace-as-verifiable-artifact pipeline:
#   1. gossiplab records a trace of a clean audited run;
#   2. tracecheck must accept it (exit 0);
#   3. a tampered copy (an appended out-of-order step event) must be
#      rejected with a nonzero exit;
#   4. numbers are read strictly: a signed flag value exits 2 naming the
#      flag, and a signed or wrapped field in the trace exits 3 (malformed)
#      instead of being read as a wrapped value.
# Driven by ctest; see tools/CMakeLists.txt.
foreach(var GOSSIPLAB TRACECHECK WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tracecheck_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

set(clean "${WORKDIR}/tracecheck_smoke_clean.trace")
set(mutated "${WORKDIR}/tracecheck_smoke_mutated.trace")

execute_process(
  COMMAND "${GOSSIPLAB}" trace --alg ears --n 16 --f 4 --d 3 --delta 2
          --schedule staggered --seed 7 --steps 400 --record "${clean}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gossiplab failed to record a trace (exit ${rc})")
endif()

execute_process(COMMAND "${TRACECHECK}" "${clean}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tracecheck rejected a clean trace (exit ${rc})")
endif()

file(READ "${clean}" contents)
file(WRITE "${mutated}" "${contents}step 0 0\n")
execute_process(COMMAND "${TRACECHECK}" "${mutated}"
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "tracecheck accepted a tampered trace")
endif()

foreach(args "--d;-1" "--n;-5")
  list(GET args 0 flag)
  execute_process(COMMAND "${TRACECHECK}" ${args} "${clean}"
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  string(FIND "${err}" "${flag} " named)
  if(NOT rc EQUAL 2 OR named EQUAL -1)
    message(FATAL_ERROR "tracecheck ${args} exited ${rc}, want 2 with a "
                        "message naming ${flag}; stderr: ${err}")
  endif()
endforeach()

# A small trace with a `step 0 1` line to tamper with: a wrapped id
# (2^32 + 1), a signed one, or a signed model field must be malformed.
set(small "${WORKDIR}/tracecheck_smoke_small.trace")
set(bad "${WORKDIR}/tracecheck_smoke_bad.trace")
execute_process(
  COMMAND "${GOSSIPLAB}" trace --alg ears --n 4 --f 0 --seed 1 --steps 6
          --record "${small}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
file(READ "${small}" contents)
string(FIND "${contents}" "\nstep 0 1\n" at)
string(FIND "${contents}" "\nmodel n=4 " model_at)
if(NOT rc EQUAL 0 OR at EQUAL -1 OR model_at EQUAL -1)
  message(FATAL_ERROR "gossiplab trace (exit ${rc}) has no `step 0 1` or "
                      "`model n=4` line to tamper with")
endif()
foreach(pair "step 0 1|step 0 4294967297" "step 0 1|step 0 -4294967295"
             "model n=4 |model n=-5 ")
  string(REPLACE "|" ";" pair "${pair}")
  list(GET pair 0 from)
  list(GET pair 1 to)
  string(REPLACE "\n${from}" "\n${to}" tampered "${contents}")
  file(WRITE "${bad}" "${tampered}")
  execute_process(COMMAND "${TRACECHECK}" "${bad}"
    RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
  if(NOT rc EQUAL 3)
    message(FATAL_ERROR "tracecheck exited ${rc} on `${to}`, want 3 "
                        "(malformed trace)")
  endif()
endforeach()

message(STATUS "tracecheck smoke test passed (clean accepted, tampered "
               "rejected, signed and wrapped numbers refused)")
