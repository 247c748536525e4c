# pfeval end to end: write a small policy, then run the binary on a flow
# it passes (exit 0), a flow it blocks (exit 2), a missing --flow (exit 1)
# and a policy that names an unknown table (exit 1 with the error).
#
#   cmake -DPFEVAL=<path to pfeval> -DWORK_DIR=<scratch dir> -P pfeval_test.cmake

if(NOT PFEVAL OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DPFEVAL=... -DWORK_DIR=... -P pfeval_test.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(policy "${WORK_DIR}/50-web.control")
file(WRITE "${policy}"
  "block all\n"
  "pass from any to any port 80 with eq(@src[userID], alice)\n")
set(bad_policy "${WORK_DIR}/60-bad.control")
file(WRITE "${bad_policy}" "pass from <nosuch> to any\n")

# run(<name> <expected exit> <stdout or stderr regex> <args>...)
function(run name expected pattern)
  execute_process(COMMAND "${PFEVAL}" ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected}")
    message(FATAL_ERROR
      "${name}: exit ${code}, expected ${expected}\nstdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR
      "${name}: output does not match '${pattern}'\nstdout: ${out}\nstderr: ${err}")
  endif()
  message(STATUS "${name}: exit ${code} as expected")
endfunction()

run(pass 0 "^pass \\(rule at [^ ]*50-web\\.control:2\\)"
    --policy "${policy}" --flow tcp:10.0.0.1:40000:10.0.0.2:80
    --src userID=alice)
run(block 2 "^block \\(rule at [^ ]*50-web\\.control:1\\)"
    --policy "${policy}" --flow tcp:10.0.0.1:40000:10.0.0.2:80
    --src userID=mallory)
run(missing_flow 1 "usage: pfeval"
    --policy "${policy}")
run(policy_error 1 "pfeval: unknown table <nosuch>"
    --policy "${bad_policy}" --flow tcp:10.0.0.1:40000:10.0.0.2:80)
