# CLI contract smoke test for gossiplab:
#   1. every subcommand's --help exits 0 and prints the defaults the run
#      uses;
#   2. usage errors exit 2: unknown flags and subcommands, malformed or
#      missing values, bad choices, flags a subcommand does not read;
#   3. the committed repro fixture replays with a matching trace hash;
#   4. the fault-injection fuzz pipeline finds a failure (exit 1), shrinks
#      it, writes spec + trace artifacts, and the spec artifact replays
#      bit-identically (exit 0) while tracecheck accepts the trace artifact;
#   5. the flight-recorder surface: rt --spans writes a flight log that
#      `gossiplab spans` converts, and the stats-flag contract violations
#      exit 2;
#   6. the UDP multi-process driver: rt --transport udp re-execs one OS
#      process per gossip process, the merged trace lints clean with
#      tracecheck, the JSON report names the multiproc runtime, and the
#      transport-flag contract violations exit 2;
#   7. the serving stack: an inproc loadgen run commits a consistent history
#      (histcheck exits 0), a tampered log is rejected (exit 1), and the
#      serve/loadgen/histcheck flag contracts exit 2.
# Driven by ctest; see tools/CMakeLists.txt.
foreach(var GOSSIPLAB TRACECHECK WORKDIR FIXTURE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "gossiplab_cli.cmake needs -D${var}=...")
  endif()
endforeach()

# expect_exit(<code> <args>...): runs gossiplab with <args> and fails unless
# it exits <code>. Leaves its stdout in `out` and its stderr in `err`.
function(expect_exit code)
  execute_process(COMMAND "${GOSSIPLAB}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(NOT rc EQUAL code)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "gossiplab ${cmd} exited ${rc}, want ${code}:\n"
                        "${o}${e}")
  endif()
  set(out "${o}" PARENT_SCOPE)
  set(err "${e}" PARENT_SCOPE)
endfunction()

# expect_match(<text> <regex> <what>): fails unless <text> matches <regex>.
function(expect_match text regex what)
  if(NOT text MATCHES "${regex}")
    message(FATAL_ERROR "${what}:\n${text}")
  endif()
endfunction()

# 1. --help for every subcommand.
foreach(sub gossip sweep consensus lowerbound trace report rt fuzz replay
        statcheck spans serve loadgen histcheck)
  expect_exit(0 ${sub} --help)
  expect_match("${out}" "usage: gossiplab ${sub}"
               "gossiplab ${sub} --help printed no usage line")
endforeach()
# Help prints the defaults the run uses.
expect_exit(0 lowerbound --help)
expect_match("${out}" "\n  --shutdown-c X +[^\n]*\\(default 2\\.0\\)"
             "lowerbound --help does not give --shutdown-c default 2.0")
expect_exit(0 rt --help)
expect_match("${out}" "\n  --d N +[^\n]*default 4\\)"
             "rt --help does not give --d default 4")
expect_match("${out}" "\n  --delta N +[^\n]*default 2\\)"
             "rt --help does not give --delta default 2")
if(out MATCHES "default 1, 1")
  message(FATAL_ERROR "rt --help still claims d/delta defaults 1, 1:\n${out}")
endif()

# 2. Usage errors exit 2.
expect_exit(2 gossip --no-such-flag 1)
expect_match("${err}" "--no-such-flag" "unknown flag not named")
expect_exit(2 frobnicate)
expect_exit(2 gossip --n abc)
expect_exit(2 gossip --n 16x)
expect_match("${err}" "--n" "malformed --n not named")
expect_exit(2 gossip --n 16 --f 16)
expect_exit(2 consensus --inputs bogus)
expect_match("${err}" "--inputs" "bad --inputs choice not named")
expect_exit(2 trace --record)
expect_exit(2 serve --port abc)
expect_exit(2 sweep --f 99)
expect_exit(2 gossip --seed 1 --seed 2)

# 3. The committed fixture replays bit-identically.
expect_exit(0 replay --in "${FIXTURE}")

# A corrupted pinned hash must be detected (exit 1).
file(READ "${FIXTURE}" fixture_text)
string(REGEX REPLACE "\"trace_hash\": \"[0-9]+\"" "\"trace_hash\": \"1\""
       tampered_text "${fixture_text}")
set(tampered "${WORKDIR}/gossiplab_cli_tampered.spec.json")
file(WRITE "${tampered}" "${tampered_text}")
expect_exit(1 replay --in "${tampered}")

# 4. The injection pipeline: find -> shrink -> artifacts -> replay.
set(prefix "${WORKDIR}/gossiplab_cli_repro")
expect_exit(1 fuzz --iters 20 --seed 3 --inject late-delivery
            --out "${prefix}")
expect_match("${out}" "injected-audit"
             "injected fuzz did not report an injected-audit failure")
foreach(artifact "${prefix}.spec.json" "${prefix}.trace")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "fuzz did not write ${artifact}")
  endif()
endforeach()
expect_exit(0 replay --in "${prefix}.spec.json")
execute_process(COMMAND "${TRACECHECK}" "${prefix}.trace"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tracecheck rejected the fuzz trace artifact "
                      "(exit ${rc})")
endif()

# 5. Flight recorder: rt --spans -> spans conversion round trip, and the
# stats-flag contract (interval 0 and --stats-out alone both exit 2).
set(flight "${WORKDIR}/gossiplab_cli_sample.flight")
expect_exit(0 rt --alg ears --n 10 --f 2 --seed 5 --tick-us 100
            --spans "${flight}")
if(NOT EXISTS "${flight}")
  message(FATAL_ERROR "rt --spans did not write ${flight}")
endif()
expect_exit(0 spans --in "${flight}"
            --out "${WORKDIR}/gossiplab_cli_sample.trace.json")
expect_match("${out}" "delivery wall latency"
             "spans printed no latency summary")
expect_exit(2 spans --in "${WORKDIR}/no_such.flight")
expect_exit(2 rt --n 8 --stats-interval-ms 0)
expect_exit(2 rt --n 8 --stats-out "${WORKDIR}/gossiplab_cli_stats.ndjson")

# 6. UDP multi-process driver: a small real run over loopback sockets.
set(mp_trace "${WORKDIR}/gossiplab_cli_udp.trace")
set(mp_json "${WORKDIR}/gossiplab_cli_udp.json")
expect_exit(0 rt --transport udp --algorithm tears --n 6 --f 1 --seed 13
            --tick-us 200 --record "${mp_trace}" --out "${mp_json}")
execute_process(COMMAND "${TRACECHECK}" "${mp_trace}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tracecheck rejected the merged multiproc trace "
                      "(exit ${rc})")
endif()
file(READ "${mp_json}" mp_report)
expect_match("${mp_report}" "\"runtime\": \"realtime-multiproc\""
             "udp rt report does not name the multiproc runtime")
expect_match("${mp_report}" "\"audit_violations\": 0"
             "udp rt report shows audit violations")
# Consensus over the multiproc driver: one OS process per replica, the
# ConsensusPayload wire extension on real datagrams, and the aggregated
# verdict (carried via worker note files) must come back clean.
set(cr_json "${WORKDIR}/gossiplab_cli_cr_udp.json")
expect_exit(0 rt --transport udp --algorithm cr-ears --n 5 --f 2 --seed 21
            --tick-us 200 --out "${cr_json}")
expect_match("${err}" "consensus: ok"
             "multiproc cr-ears run did not report a clean consensus verdict")
file(READ "${cr_json}" cr_report)
expect_match("${cr_report}" "consensus_agreement"
             "cr-ears udp report carries no consensus summary")

# Transport-flag contracts: wire faults need a UDP transport, and the
# flight recorder / live stats are threaded-driver-only.
expect_exit(2 rt --n 6 --wire-drop 0.1)
expect_exit(2 rt --transport udp --n 6
            --spans "${WORKDIR}/gossiplab_cli_udp.flight")

# 7. Serving stack: inproc loadgen -> committed log + observations ->
# histcheck, plus the tamper and flag contracts.
set(svc_log "${WORKDIR}/gossiplab_cli_svc.log")
set(svc_obs "${WORKDIR}/gossiplab_cli_svc.obs")
expect_exit(0 loadgen --target inproc --requests 2000 --n 8 --f 3
            --crashes 1 --seed 9 --log "${svc_log}" --obs "${svc_obs}")
expect_match("${out}" "-> complete"
             "inproc loadgen did not report a complete run")
expect_exit(0 histcheck --log "${svc_log}" --obs "${svc_obs}")
# Tamper: rewriting one committed put's value must fail the replay check.
file(READ "${svc_log}" svc_log_text)
string(REGEX REPLACE "(\n[0-9]+ put [^\n]* )v([0-9]+)" "\\1TAMPERED"
       svc_log_tampered "${svc_log_text}")
if(svc_log_tampered STREQUAL svc_log_text)
  message(FATAL_ERROR "tamper regex matched nothing in ${svc_log}")
endif()
set(svc_log_bad "${WORKDIR}/gossiplab_cli_svc_tampered.log")
file(WRITE "${svc_log_bad}" "${svc_log_tampered}")
expect_exit(1 histcheck --log "${svc_log_bad}" --obs "${svc_obs}")
# Flag contracts.
expect_exit(2 serve)
expect_exit(2 loadgen --requests 10)
expect_exit(2 loadgen --target udp --requests 10)
expect_exit(2 loadgen --target inproc --rate 100)
expect_exit(2 loadgen --target inproc --requests 10 --value-bytes 0)
expect_exit(2 loadgen --target inproc --requests 10 --alg ears)
expect_exit(2 histcheck --log "${svc_log}")

message(STATUS "gossiplab CLI smoke test passed")
