# Lint: fails if any source file under SRC_DIR includes <random> or names
# the standard library's engines, distributions or random_device. All
# randomness goes through src/common/rng.{h,cc}, whose bits this
# repository fixes; a stray standard-library generator would make results
# depend on the toolchain again. Tests may use <random> for their own
# fixtures.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/lint_no_std_random.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "SRC_DIR is not a directory: '${SRC_DIR}'")
endif()

file(GLOB_RECURSE sources
     "${SRC_DIR}/*.h" "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cc" "${SRC_DIR}/*.cpp")
set(patterns
    "#[ \t]*include[ \t]*<random>"
    "std::mt19937"
    "std::[A-Za-z0-9_]*_distribution"
    "std::random_device")

set(violations 0)
foreach(file IN LISTS sources)
  foreach(pattern IN LISTS patterns)
    file(STRINGS "${file}" hits REGEX "${pattern}")
    foreach(hit IN LISTS hits)
      message(SEND_ERROR "${file}: '${pattern}': ${hit}")
      math(EXPR violations "${violations} + 1")
    endforeach()
  endforeach()
endforeach()

list(LENGTH sources num_sources)
if(num_sources EQUAL 0)
  message(FATAL_ERROR "no sources found under ${SRC_DIR}")
endif()
if(violations GREATER 0)
  message(FATAL_ERROR "${violations} use(s) of <random> under ${SRC_DIR}")
endif()
message(STATUS "checked ${num_sources} files under ${SRC_DIR}: no <random>")
