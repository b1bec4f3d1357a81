// Command-line error handling of the vdmsim tool: a malformed or
// out-of-range option value is a usage error (one line on stderr, exit 2),
// never an uncaught exception. The binary path is injected by CMake
// (VDMSIM_BINARY_PATH).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_vdmsim(const std::string& args) {
  const std::string cmd = std::string(VDMSIM_BINARY_PATH) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(VdmsimCli, SmallRunSucceeds) {
  const RunResult r = run_vdmsim(
      "--members 12 --seeds 1 --join-phase 50 --total-time 100 --quiet --csv");
  SCOPED_TRACE(r.output);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("stretch"), std::string::npos);
}

TEST(VdmsimCli, MalformedOptionValueIsAUsageError) {
  for (const char* args : {"--members abc", "--members 12x", "--members=",
                           "--churn 0.05x", "--seeds two"}) {
    const RunResult r = run_vdmsim(args);
    SCOPED_TRACE(r.output);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("bad value"), std::string::npos) << args;
  }
}

TEST(VdmsimCli, NonPositiveCountIsAUsageError) {
  for (const char* args : {"--members 0", "--members -5", "--seeds 0"}) {
    const RunResult r = run_vdmsim(args);
    SCOPED_TRACE(r.output);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_NE(r.output.find("must be at least 1"), std::string::npos) << args;
  }
}

}  // namespace
