# Bad-input contract of the examples that read a circuit name or a .bench
# path from argv: each prints "<tool>: <reason>" to stderr and exits 1
# (no abort).  Run via `cmake -P` so exact exit codes can be asserted.
#
# Inputs: -DQUICKSTART=<quickstart binary> -DRETIME_TOOL=<retime_tool binary>
#         -DWORK_DIR=<scratch dir>

# Runs the command and requires exit `code` and a stderr matching `pattern`.
function(run_expect_error code pattern)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL ${code} OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
      "expected exit ${code} and stderr matching '${pattern}', got ${result}"
      " from: ${ARGN}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A well-formed netlist with fewer partitionable cells than quickstart's
# nine blocks.
set(TINY "${WORK_DIR}/tiny.bench")
file(WRITE "${TINY}" "INPUT(a)\nOUTPUT(q)\nq = DFF(g)\ng = NOT(a)\n")

run_expect_error(1 "^quickstart: .*fewer than num_blocks" ${QUICKSTART} ${TINY})
run_expect_error(1 "^quickstart: .*unknown suite circuit: nosuchcircuit"
  ${QUICKSTART} nosuchcircuit)
run_expect_error(1 "^retime_tool: .*cannot open nosuch" ${RETIME_TOOL} nosuch)
