// Per-test scratch file paths. ctest runs every gtest case as its own
// process, so a file name shared by a whole suite is written by several
// cases at once under `ctest -j`. The test name keeps cases apart; the pid
// keeps apart processes running the same case at once (scripts/check.sh's
// contention leg runs one filter in four processes).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace patchwork::testing {

/// TempDir()<suite>.<test>.<pid>.<file> for the currently running test;
/// call it from inside a test (its body, SetUp or TearDown).
inline std::string unique_temp_path(const std::string& file) {
  const ::testing::TestInfo& info =
      *::testing::UnitTest::GetInstance()->current_test_info();
  std::string test =
      std::string(info.test_suite_name()) + "." + info.name();
  std::replace(test.begin(), test.end(), '/', '_');  // Parameterized names.
  // TempDir() ends in a path separator.
  return ::testing::TempDir() + test + "." + std::to_string(::getpid()) +
         "." + file;
}

}  // namespace patchwork::testing
