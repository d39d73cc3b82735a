// Per-test scratch directories. ctest runs every test case as its own
// process and, with -j, runs those processes at the same time, so a fixed
// file name under the system temp dir is shared by concurrent writers and
// readers. A ScopedTempDir is named for the process id and the running
// test, and it is removed with everything in it when it goes out of scope.

#ifndef NEWSLINK_TESTS_TEST_TEMP_H_
#define NEWSLINK_TESTS_TEST_TEMP_H_

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

#include <gtest/gtest.h>

namespace newslink {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string name = "newslink_";
    name.append(std::to_string(::getpid()));
    const testing::TestInfo* test =
        testing::UnitTest::GetInstance()->current_test_info();
    if (test != nullptr) {
      name.append("_").append(test->test_suite_name());
      name.append(".").append(test->name());
    }
    static std::atomic<int> instances{0};  // several dirs in one test
    name.append("_").append(std::to_string(instances.fetch_add(1)));
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized names carry '/'
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// Path of `name` inside the directory (the file is not created).
  std::string File(std::string_view name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace newslink

#endif  // NEWSLINK_TESTS_TEST_TEMP_H_
