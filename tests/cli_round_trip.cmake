# Drives omtcli end to end; any failing step aborts the test.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGV}")
  endif()
endfunction()

set(pts ${WORKDIR}/cli_pts.txt)
set(tree ${WORKDIR}/cli_tree.txt)
set(svg ${WORKDIR}/cli_fig.svg)
run(${OMTCLI} generate --n 1500 --region clustered --seed 5 --out ${pts})
run(${OMTCLI} build --points ${pts} --algo polar --degree 6 --out ${tree})
run(${OMTCLI} metrics --points ${pts} --tree ${tree} --degree 6)
run(${OMTCLI} simulate --points ${pts} --tree ${tree} --serialization 0.01 --order deepest)
run(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --loss 0.01 --control-loss 0.005 --seed 7)
run(${OMTCLI} render --points ${pts} --tree ${tree} --grid 1 --out ${svg})

# Multi-group service: generate + save the membership script, then replay
# the saved artifact through a differently-sharded service; both runs must
# converge (exit 0) on the same deterministic script.
set(script ${WORKDIR}/cli_service_script.txt)
run(${OMTCLI} serve --groups 40 --hosts 800 --events 8000 --seed 11
    --shards 2 --save-script ${script})
run(${OMTCLI} serve --script ${script} --shards 1 --rpc 1)

# A flag the subcommand does not read (a typo, or a removed option) must be
# rejected before the command does any work: non-zero exit, the flag named
# on stderr, nothing on stdout.
foreach(bad incremntal incremental)
  execute_process(COMMAND ${OMTCLI} churn --events 2000 --${bad} 0
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0 OR NOT err MATCHES "--${bad}" OR NOT out STREQUAL "")
    message(FATAL_ERROR "omtcli churn accepted --${bad} (exit ${code}): "
      "stdout='${out}' stderr='${err}'")
  endif()
endforeach()
