# Checks that README's "Built-in backends" table names exactly the backends
# `cosy_tool --list-backends` prints: the backticked names in the table's
# first column against the first token of each --list-backends line.
# Registered as the `cli_readme_backend_table` ctest entry; by hand:
#
#   cmake -DCOSY_TOOL=build/cosy_tool -DREADME=README.md \
#         -P scripts/check_readme_backends.cmake
#
# Fails, printing the names found on only one side, when the two differ.

foreach(var IN ITEMS COSY_TOOL README)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_readme_backends: pass -D${var}=<path>")
  endif()
endforeach()

execute_process(COMMAND "${COSY_TOOL}" --list-backends
                OUTPUT_VARIABLE listed
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "cosy_tool --list-backends exited with ${status}")
endif()
set(tool_names)
string(REGEX MATCHALL "(^|\n)[^ \n]+" tokens "${listed}")
foreach(token IN LISTS tokens)
  string(STRIP "${token}" token)
  list(APPEND tool_names "${token}")
endforeach()

# The table runs from the "Built-in backends" line to the first blank line.
file(READ "${README}" readme)
string(FIND "${readme}" "Built-in backends" start)
if(start EQUAL -1)
  message(FATAL_ERROR "${README} has no \"Built-in backends\" table")
endif()
string(SUBSTRING "${readme}" ${start} -1 readme)
string(FIND "${readme}" "\n\n|" table_start)
string(SUBSTRING "${readme}" ${table_start} -1 readme)
string(SUBSTRING "${readme}" 2 -1 readme)
string(FIND "${readme}" "\n\n" table_end)
string(SUBSTRING "${readme}" 0 ${table_end} table)
set(readme_names)
string(REGEX MATCHALL "(^|\n)\\| `[^`]+` \\|" rows "${table}")
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^\n?\\| `([^`]+)` \\|$" "\\1" name "${row}")
  list(APPEND readme_names "${name}")
endforeach()

list(SORT tool_names)
list(SORT readme_names)
list(LENGTH tool_names tool_count)
list(LENGTH readme_names readme_count)
if(NOT tool_names STREQUAL readme_names)
  set(readme_only ${readme_names})
  list(REMOVE_ITEM readme_only ${tool_names})
  set(tool_only ${tool_names})
  list(REMOVE_ITEM tool_only ${readme_names})
  message(FATAL_ERROR
          "README backend table (${readme_count}) != --list-backends "
          "(${tool_count})\n"
          "  only in README: ${readme_only}\n"
          "  only in --list-backends: ${tool_only}")
endif()
message(STATUS "README backend table matches --list-backends "
               "(${readme_count} = ${tool_count})")
