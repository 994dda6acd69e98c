# Exercises msampctl's flag-parser error handling: valueless, unknown, and
# non-numeric flags must exit 2 with a usage message (never crash), and a
# well-formed invocation must still succeed.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_usage_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

# expect_usage_error(<args...>): exit code must be 2 and stderr must carry
# an "error:" line (a crash gives a signal-mangled code, not 2).
function(expect_usage_error)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "msampctl ${ARGN}: expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "error:")
    message(FATAL_ERROR "msampctl ${ARGN}: no usage error on stderr: ${err}")
  endif()
endfunction()

function(expect_ok)
  execute_process(COMMAND ${MSAMPCTL} ${ARGN}
                  WORKING_DIRECTORY ${work} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "msampctl ${ARGN} failed with ${rc}")
  endif()
endfunction()

expect_usage_error(fleet --threads)                 # trailing flag, no value
expect_usage_error(fleet --racks)                   # same, different flag
expect_usage_error(fleet --bogus 3)                 # unknown flag
expect_usage_error(fleet racks 3)                   # positional token
expect_usage_error(fleet --racks two)               # non-integer value
expect_usage_error(simulate-rack --intensity high)  # non-numeric value
expect_usage_error(analyze --threads 2)             # flag from another command
expect_usage_error(fleet --shard 3)                 # shard needs I/N
expect_usage_error(fleet --shard 2/2)               # index out of range
expect_usage_error(fleet --shard a/b)               # non-numeric halves
expect_usage_error(merge)                           # no shard files given
expect_usage_error(merge --bogus x shard.bin)       # unknown flag

# Scale flags outside what the dataset's record fields hold (hour is a
# uint8, a day has at most 24 hours, exemplars store samples as a uint16)
# fail closed in every command that builds a FleetConfig from flags.
expect_usage_error(fleet --racks -3)
expect_usage_error(fleet --racks 0)
expect_usage_error(fleet --hours 0)
expect_usage_error(fleet --hours 25)
expect_usage_error(fleet --hours 300)
expect_usage_error(fleet --samples 0)
expect_usage_error(fleet --samples 65536)
expect_usage_error(worker --racks 0 --shard 0/1 --out w.bin)
expect_usage_error(cluster --hours 300 --out c.bin)
expect_usage_error(sweep --samples 0 --policies dt)

# Buffer-policy parameters scale a queue's admission limit: NaN, infinity,
# zero and negatives fail closed, as flags and as sweep list entries.  The
# day is tiny so a regression that runs it anyway still finishes fast.
set(tiny --racks 1 --hours 1 --samples 10)
expect_usage_error(fleet ${tiny} --alpha nan --out p.bin)
expect_usage_error(fleet ${tiny} --alpha -1 --out p.bin)
expect_usage_error(fleet ${tiny} --alpha inf --out p.bin)
expect_usage_error(fleet ${tiny} --policy burst-absorb --boost 0 --out p.bin)
expect_usage_error(fleet ${tiny} --policy delay --target-delay -5 --out p.bin)
expect_usage_error(worker ${tiny} --alpha 0 --shard 0/1 --out p.bin)
expect_usage_error(cluster ${tiny} --target-delay nan --out p.bin)
expect_usage_error(sweep ${tiny} --alphas -1,nan --out-dir sw)
expect_usage_error(sweep ${tiny} --policies burst-absorb --boosts 4,0
                   --out-dir sw)
expect_usage_error(sweep ${tiny} --policies delay --target-delays inf
                   --out-dir sw)

# Cluster knobs fail closed before any worker is forked.
expect_usage_error(cluster ${tiny} --stall-ms 0 --out p.bin)
expect_usage_error(cluster ${tiny} --workers 0 --out p.bin)
expect_usage_error(cluster ${tiny} --chunk-bytes 0 --out p.bin)
expect_usage_error(cluster ${tiny} --fault-rate 2 --out p.bin)
expect_usage_error(cluster ${tiny} --fault-rate nan --out p.bin)
expect_usage_error(worker ${tiny} --chunk-bytes 0 --shard 0/1 --out p.bin)
expect_usage_error(worker ${tiny} --fault-rate -0.5 --shard 0/1 --out p.bin)
expect_usage_error(sweep ${tiny} --policies dt --alphas 1 --workers 1
                   --stall-ms 0 --out-dir sw)
expect_usage_error(sweep ${tiny} --policies dt --alphas 1 --workers 1
                   --fault-rate 1.5 --out-dir sw)
expect_usage_error(sweep ${tiny} --policies dt --alphas 1 --workers -1
                   --out-dir sw)

# simulate-rack checks every flag before it builds the rack: the oversized
# --servers must be refused, not allocated.
expect_usage_error(simulate-rack --servers 0 --samples 10 --out t.csv)
expect_usage_error(simulate-rack --servers 100000000000 --samples 10)
expect_usage_error(simulate-rack --servers 4096 --samples 65535)
expect_usage_error(simulate-rack --servers 8 --samples 0)
expect_usage_error(simulate-rack --servers 8 --samples 10 --hour 24)
expect_usage_error(simulate-rack --servers 8 --samples 10 --hour -1)
expect_usage_error(simulate-rack --servers 8 --samples 10 --intensity -1)
expect_usage_error(simulate-rack --servers 8 --samples 10 --intensity nan)
expect_usage_error(simulate-rack --servers 8 --samples 10 --task bogus)

# The happy path still works end to end.
expect_ok(simulate-rack --servers 8 --samples 60 --out t.csv)
expect_ok(analyze --trace t.csv)
file(REMOVE_RECURSE ${work})
