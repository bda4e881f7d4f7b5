# Byte-compares the artifacts a program writes against their committed
# expectations:
#
#   cmake -DEXPECTED_DIR=<dir> -DPRODUCED_DIR=<dir> -DFILES=<name>[,<name>...]
#         -P check_expected.cmake -- <program> [<arg>...]
#
# Runs <program> <arg>..., whose arguments make it write each file named in
# FILES into PRODUCED_DIR, then requires each produced file to equal the file
# of the same name in EXPECTED_DIR, byte for byte. The artifacts are
# deterministic (fixed seeds, simulated time only), so any difference is a
# change in behaviour, never noise.
cmake_minimum_required(VERSION 3.16)

set(command "")
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command OR NOT FILES OR NOT EXPECTED_DIR OR NOT PRODUCED_DIR)
  message(FATAL_ERROR "usage: cmake -DEXPECTED_DIR=... -DPRODUCED_DIR=... "
                      "-DFILES=a,b -P check_expected.cmake -- <program> [<arg>...]")
endif()
string(REPLACE "," ";" files "${FILES}")

# A file left over from an earlier run must not stand in for one this run
# failed to write.
file(MAKE_DIRECTORY "${PRODUCED_DIR}")
foreach(name IN LISTS files)
  file(REMOVE "${PRODUCED_DIR}/${name}")
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${command} exited with ${status}")
endif()

set(mismatched "")
foreach(name IN LISTS files)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${PRODUCED_DIR}/${name}" "${EXPECTED_DIR}/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    string(APPEND mismatched
           "  produced: ${PRODUCED_DIR}/${name}\n  expected: ${EXPECTED_DIR}/${name}\n")
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR
          "artifact differs from its expectation:\n${mismatched}"
          "If the behaviour change is intended, copy each produced file over its "
          "expectation and say why in CHANGES.md.")
endif()
