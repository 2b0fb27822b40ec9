# CLI contract test for lacobs (and the bench binaries' usage path), run
# via `cmake -P` so exact exit codes can be asserted (ctest's WILL_FAIL
# only distinguishes zero from non-zero).
#
# Inputs: -DLACOBS=<lacobs binary> -DTABLE1=<table1_main binary>
#         -DDATA_DIR=<tests/data> -DWORK_DIR=<scratch dir>

function(run_expect code)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL ${code})
    message(FATAL_ERROR
      "expected exit ${code}, got ${result} from: ${ARGN}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(BASELINE "${DATA_DIR}/mini_baseline.json")
set(REGRESS "${DATA_DIR}/mini_regress.json")

# Usage path: --help succeeds, unknown commands/options exit 64.
run_expect(0 ${LACOBS} --help)
run_expect(0 ${LACOBS} help)
run_expect(64 ${LACOBS})
run_expect(64 ${LACOBS} --bogus)
run_expect(64 ${LACOBS} frobnicate report.json)
run_expect(64 ${LACOBS} diff only_one.json)
run_expect(64 ${LACOBS} trace ${BASELINE} --bogus)
# Unreadable input exits 66.
run_expect(66 ${LACOBS} summary ${WORK_DIR}/does_not_exist.json)

# Bench binaries share the usage contract (and --help must not start the
# one-minute suite run).
run_expect(0 ${TABLE1} --help)
run_expect(64 ${TABLE1} --bogus)
run_expect(64 ${TABLE1} out_a out_b)
run_expect(64 ${TABLE1} --limit notanumber)
# --threads: negative or malformed counts are usage errors (0 = auto is
# accepted, exercised by the perf-gate job, not here — it runs the suite).
run_expect(64 ${TABLE1} --threads -1)
run_expect(64 ${TABLE1} --threads notanumber)
run_expect(64 ${TABLE1} --threads)
# The flag that selected the removed cold LAC solve path is now an unknown
# option.
run_expect(64 ${TABLE1} --lac-incremental off)

# --eco: journal-driven tools read the file in parse_cli (missing file is
# EX_NOINPUT, 66) and validate the content before planning (malformed
# journal is a usage error, 64).  Tools without the flag reject it.
run_expect(0 ${ECO_REPLAN} --help)
run_expect(64 ${ECO_REPLAN} --eco)
run_expect(66 ${ECO_REPLAN} --eco ${WORK_DIR}/no_such_journal.eco)
file(WRITE "${WORK_DIR}/bad_journal.eco" "resize_block one hundred\n")
run_expect(64 ${ECO_REPLAN} ${WORK_DIR} --eco ${WORK_DIR}/bad_journal.eco)
run_expect(64 ${TABLE1} --eco ${WORK_DIR}/bad_journal.eco)

# diff: clean self-diff, exit 2 when a deterministic counter
# (mcf.augmentations) was doctored — timings alone must not mask it even
# with --timings-warn-only.
run_expect(0 ${LACOBS} diff ${BASELINE} ${BASELINE})
run_expect(2 ${LACOBS} diff ${BASELINE} ${REGRESS})
run_expect(2 ${LACOBS} diff ${BASELINE} ${REGRESS} --timings-warn-only)
# --ignore exempts a prefix family (the fixtures' only regression is the
# doctored mcf.augmentations counter); an unrelated prefix changes
# nothing, and a missing value is a usage error.
run_expect(0 ${LACOBS} diff ${BASELINE} ${REGRESS} --ignore mcf.)
run_expect(2 ${LACOBS} diff ${BASELINE} ${REGRESS} --ignore lac.)
run_expect(64 ${LACOBS} diff ${BASELINE} ${REGRESS} --ignore)

# trace: writes a loadable Chrome trace-event document.
run_expect(0 ${LACOBS} trace ${REGRESS} -o ${WORK_DIR}/trace.json)
file(READ "${WORK_DIR}/trace.json" trace_text)
if(NOT trace_text MATCHES "\"traceEvents\":\\[")
  message(FATAL_ERROR "trace output lacks traceEvents array:\n${trace_text}")
endif()

# strip-times: output re-diffs cleanly against the original and carries
# no span "seconds" members.
run_expect(0 ${LACOBS} strip-times ${REGRESS} -o ${WORK_DIR}/stripped.json)
file(READ "${WORK_DIR}/stripped.json" stripped_text)
if(stripped_text MATCHES "\"seconds\":")
  message(FATAL_ERROR "strip-times left wall-clock data:\n${stripped_text}")
endif()
run_expect(0 ${LACOBS} diff ${WORK_DIR}/stripped.json ${REGRESS})

# summary works on plain and stripped reports.
run_expect(0 ${LACOBS} summary ${REGRESS})
run_expect(0 ${LACOBS} summary ${BASELINE} ${REGRESS})

# summary shows what proved each planning iteration's T_min: the
# timing.min_period annotations under the circuit's planner.plan root.
file(WRITE "${WORK_DIR}/t_min_proof.json" [[{"schema":"lac-obs-report/2","name":"mini","obs_enabled":true,"trace":[{"name":"planner.plan","seconds":0.3,"annotations":{"circuit":"y9"},"children":[{"name":"planner.iteration","seconds":0.2,"children":[{"name":"stage.timing","seconds":0.1,"annotations":{"t_min_ps":912.8},"children":[{"name":"timing.min_period","seconds":0.05,"annotations":{"io_bound_ps":864,"t_min_proof":"cycle"}}]}]}]}],"metrics":{"counters":{}},"dropped_root_spans":0}
]])
execute_process(COMMAND ${LACOBS} summary ${WORK_DIR}/t_min_proof.json
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0 OR NOT out MATCHES
   "\\| y9 +\\| 912\\.8 +\\| 864 +\\| cycle +\\|")
  message(FATAL_ERROR "summary lacks the T_min proof row:\n${out}\n${err}")
endif()

set(V2 "${DATA_DIR}/mini_v2.json")

# summary warns on stderr when the report dropped root spans.
execute_process(COMMAND ${LACOBS} summary ${V2}
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "summary on v2 fixture failed: ${err}")
endif()
if(NOT err MATCHES "dropped")
  message(FATAL_ERROR "summary did not warn about dropped spans:\n${err}")
endif()

# top: span tables by self time and, for v2 input, by self allocation;
# bad counts are usage errors, missing input exits 66.
run_expect(0 ${LACOBS} top ${BASELINE})
run_expect(64 ${LACOBS} top ${BASELINE} -n 0)
run_expect(64 ${LACOBS} top ${BASELINE} -n notanumber)
run_expect(64 ${LACOBS} top)
run_expect(66 ${LACOBS} top ${WORK_DIR}/does_not_exist.json)
execute_process(COMMAND ${LACOBS} top ${V2} -n 3
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0 OR NOT out MATCHES "by self allocation")
  message(FATAL_ERROR "top on v2 fixture lacks the allocation table:\n${out}")
endif()

# mem: per-span memory table plus mem.* gauges; --per-gate needs roots
# with a cells annotation (the v1 fixture has none -> exit 66).
run_expect(0 ${LACOBS} mem ${V2})
run_expect(0 ${LACOBS} mem ${V2} --per-gate)
run_expect(0 ${LACOBS} mem ${BASELINE})
run_expect(66 ${LACOBS} mem ${BASELINE} --per-gate)
run_expect(64 ${LACOBS} mem ${V2} --bogus)
run_expect(64 ${LACOBS} mem)
execute_process(COMMAND ${LACOBS} mem ${V2}
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0 OR NOT out MATCHES "mem.wd_bytes")
  message(FATAL_ERROR "mem output lacks the gauge table:\n${out}")
endif()

# --span-cap: malformed or negative values are usage errors.
run_expect(64 ${TABLE1} --span-cap -1)
run_expect(64 ${TABLE1} --span-cap notanumber)
run_expect(64 ${TABLE1} --span-cap)

# --stream: needs a path (the happy path runs a suite, exercised by the
# CI smoke job and obs_stream_test, not here).
run_expect(64 ${TABLE1} --stream)

# fold / strip-stream / tail over a hand-written lac-obs-events/1 stream.
set(STREAM "${WORK_DIR}/mini_stream.jsonl")
file(WRITE "${STREAM}" [[{"ev":"run","schema":"lac-obs-events/1","name":"mini","unix_ms":1,"obs_enabled":true,"mem_tracking":false}
{"ev":"open","id":1,"t":0.1,"name":"planner.plan"}
{"ev":"count","name":"mcf.augmentations","delta":5}
{"ev":"round","round":1,"n_foa":9,"n_f":12,"best_n_foa":9,"max_overflow":0,"improved":true,"warm":false,"seconds":0.05}
{"ev":"close","id":1,"t":0.3,"name":"planner.plan","seconds":0.2}
{"ev":"end","t":0.4,"name":"mini","obs_enabled":true,"meta":{},"dropped_root_spans":0,"mem_tracking":false}
]])

# A complete stream folds to a report the other subcommands accept.
run_expect(0 ${LACOBS} fold ${STREAM} -o ${WORK_DIR}/folded.json)
file(READ "${WORK_DIR}/folded.json" folded_text)
if(folded_text MATCHES "\"truncated\"")
  message(FATAL_ERROR "complete stream folded as truncated:\n${folded_text}")
endif()
run_expect(0 ${LACOBS} summary ${WORK_DIR}/folded.json)
run_expect(0 ${LACOBS} diff ${WORK_DIR}/folded.json ${WORK_DIR}/folded.json)

# A killed run's prefix still folds (exit 0) but carries the truncation
# marker; event-free text exits 66; missing operands are usage errors.
file(WRITE "${WORK_DIR}/killed_stream.jsonl" [[{"ev":"run","schema":"lac-obs-events/1","name":"mini","unix_ms":1,"obs_enabled":true,"mem_tracking":false}
{"ev":"open","id":1,"t":0.1,"name":"planner.plan"}
{"ev":"count","name":"mcf.augmen]])
run_expect(0 ${LACOBS} fold ${WORK_DIR}/killed_stream.jsonl
  -o ${WORK_DIR}/killed_report.json)
file(READ "${WORK_DIR}/killed_report.json" killed_text)
if(NOT killed_text MATCHES "\"truncated\":true")
  message(FATAL_ERROR "partial stream lacks truncation marker:\n${killed_text}")
endif()
run_expect(0 ${LACOBS} summary ${WORK_DIR}/killed_report.json)
file(WRITE "${WORK_DIR}/not_a_stream.jsonl" "not json\n")
run_expect(66 ${LACOBS} fold ${WORK_DIR}/not_a_stream.jsonl)
run_expect(66 ${LACOBS} fold ${WORK_DIR}/does_not_exist.jsonl)
run_expect(64 ${LACOBS} fold)

# strip-stream removes every wall-clock field so streams from different
# thread counts / machines can be compared bytewise.
run_expect(0 ${LACOBS} strip-stream ${STREAM} -o ${WORK_DIR}/stripped.jsonl)
file(READ "${WORK_DIR}/stripped.jsonl" sstream_text)
if(sstream_text MATCHES "\"t\":" OR sstream_text MATCHES "\"unix_ms\":")
  message(FATAL_ERROR "strip-stream left wall-clock data:\n${sstream_text}")
endif()
run_expect(64 ${LACOBS} strip-stream)
run_expect(66 ${LACOBS} strip-stream ${WORK_DIR}/does_not_exist.jsonl)

# tail --once renders a single snapshot of stage progress.
execute_process(COMMAND ${LACOBS} tail ${STREAM} --once
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0 OR NOT out MATCHES "planner.plan")
  message(FATAL_ERROR "tail --once did not render the stage table:\n${out}\n${err}")
endif()
run_expect(64 ${LACOBS} tail)
run_expect(64 ${LACOBS} tail ${STREAM} --bogus)
run_expect(64 ${LACOBS} tail ${STREAM} --interval notanumber)
run_expect(66 ${LACOBS} tail ${WORK_DIR}/does_not_exist.jsonl --once)

# diff --json emits a machine-readable lac-obs-diff/1 document with the
# same exit codes as the table form.
execute_process(COMMAND ${LACOBS} diff ${BASELINE} ${BASELINE} --json
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0 OR NOT out MATCHES "lac-obs-diff/1"
   OR NOT out MATCHES "\"verdict\":\"ok\"")
  message(FATAL_ERROR "diff --json self-diff malformed:\n${out}\n${err}")
endif()
execute_process(COMMAND ${LACOBS} diff ${BASELINE} ${REGRESS} --json
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 2 OR NOT out MATCHES "\"verdict\":\"regress\"")
  message(FATAL_ERROR "diff --json regress malformed (exit ${result}):\n${out}")
endif()

# Forward compatibility: a report from a newer schema generation loads
# best-effort with a stderr warning, never a crash.
file(WRITE "${WORK_DIR}/future_report.json" [[{"schema":"lac-obs-report/3","name":"future","obs_enabled":true,"meta":{},"trace":[{"name":"planner.plan","seconds":0.1,"children":[]}],"metrics":{"counters":{"lac.rounds":1},"gauges":{},"histograms":{}},"dropped_root_spans":0}]])
execute_process(COMMAND ${LACOBS} summary ${WORK_DIR}/future_report.json
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "summary crashed on a newer report schema: ${err}")
endif()
if(NOT err MATCHES "upgrade")
  message(FATAL_ERROR "summary did not warn about the newer schema:\n${err}")
endif()

message(STATUS "lacobs CLI contract ok")
