// Multi-process integration test (DESIGN.md §14): launches the real vdmd
// binary as one controller plus 32 forked agents on 127.0.0.1, and asserts
// from its output that the tree formed, chunks flowed down it, every agent
// reported stats, and the whole flock shut down cleanly.
//
// The binary path is injected by CMake (VDMD_BINARY_PATH). The run is
// double-guarded against hangs: vdmd enforces its own --deadline, and the
// ctest TIMEOUT property kills the test harness itself as a last resort.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_vdmd(const std::string& args) {
  const std::string cmd = std::string(VDMD_BINARY_PATH) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

int count_matching(const std::vector<std::string>& lines,
                   const std::string& needle) {
  int n = 0;
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) ++n;
  }
  return n;
}

std::string find_line(const std::vector<std::string>& lines,
                      const std::string& needle) {
  for (const std::string& l : lines) {
    if (l.find(needle) != std::string::npos) return l;
  }
  return {};
}

/// Writes `text` to a fresh file in the test temp dir; returns its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

/// "key=value" integer extraction from a stats/summary line.
long field_of(const std::string& line, const std::string& key) {
  const auto pos = line.find(key + "=");
  if (pos == std::string::npos) return -1;
  return std::strtol(line.c_str() + pos + key.size() + 1, nullptr, 10);
}

}  // namespace

TEST(VdmdLoopback, SourcePlusThirtyTwoAgentsStreamAndShutDownCleanly) {
  constexpr int kAgents = 32;
  const RunResult r = run_vdmd("--source --agents 32 --spawn "
                               "--chunk-rate 20 --stream-secs 2 --deadline 45");
  SCOPED_TRACE(r.output);
  ASSERT_EQ(r.exit_code, 0);

  const std::vector<std::string> lines = lines_of(r.output);
  EXPECT_EQ(count_matching(lines, "vdmd: controller listening on 127.0.0.1:"), 1);
  EXPECT_EQ(count_matching(lines, "vdmd: 32 agents ready"), 1);
  EXPECT_EQ(count_matching(lines, "vdmd: clean shutdown"), 1);

  // Tree formed: the source plus every agent alive at terminate.
  const std::string members = find_line(lines, "vdmd: members=");
  ASSERT_FALSE(members.empty());
  EXPECT_EQ(field_of(members, "members"), kAgents + 1);
  // With a degree limit of 4 the tree cannot be a star — depth >= 2.
  EXPECT_GE(field_of(members, "depth"), 2);

  // Chunks flowed: the source emitted and fanned out to its children.
  const std::string chunks = find_line(lines, "vdmd: chunks emitted=");
  ASSERT_FALSE(chunks.empty());
  EXPECT_GT(field_of(chunks, "emitted"), 0);
  EXPECT_GT(field_of(chunks, "fanned"), 0);

  // Real probe transactions backed the tree walk.
  const std::string control = find_line(lines, "probes=");
  ASSERT_FALSE(control.empty());
  EXPECT_GT(field_of(control, "probes"), 0);

  // Every agent answered the stats sweep, and the stream reached the tree:
  // chunks received across agents strictly exceeds what the source fanned
  // out directly (interior agents relayed down).
  EXPECT_EQ(count_matching(lines, "vdmd: stats host="), kAgents);
  long total_received = 0;
  long total_relayed = 0;
  for (const std::string& l : lines) {
    if (l.find("vdmd: stats host=") == std::string::npos) continue;
    total_received += field_of(l, "received");
    total_relayed += field_of(l, "relayed");
    EXPECT_GT(field_of(l, "control"), 0) << l;  // every agent got control msgs
  }
  EXPECT_GT(total_received, 0);
  EXPECT_GT(total_relayed, 0);  // depth >= 2 means someone relayed
  EXPECT_GE(total_received, field_of(chunks, "fanned"));
}

TEST(VdmdLoopback, UsageErrorsExitNonZeroWithoutHanging) {
  EXPECT_NE(run_vdmd("").exit_code, 0);
  EXPECT_NE(run_vdmd("--agent").exit_code, 0);  // missing --controller
  EXPECT_NE(run_vdmd("--source --agent").exit_code, 0);
}

TEST(VdmdLoopback, MalformedOptionValueIsAUsageError) {
  // A non-numeric count is rejected with exit 2 before anything binds or
  // forks; so are a numeric prefix and a port that does not fit 16 bits.
  for (const char* args : {"--source --spawn --agents abc --deadline 30",
                           "--source --spawn --agents 4x --deadline 30",
                           "--source --spawn --port 70000 --deadline 30"}) {
    const RunResult r = run_vdmd(args);
    SCOPED_TRACE(r.output);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_EQ(r.output.find("listening"), std::string::npos);
    EXPECT_EQ(r.output.find("agents ready"), std::string::npos);
  }
}

TEST(VdmdLoopback, ScenarioFileDrivesRun) {
  // The same workload-trace format the simulator replays: four joins, then
  // one leave. The run streams --stream-secs past the leave and reports
  // the source plus the three remaining agents.
  const std::string path = write_temp("vdmd_scenario.csv",
                                      "# t,join|leave|crash,host[,degree]\n"
                                      "0.05,join,1,4\n"
                                      "0.10,join,2,4\n"
                                      "0.15,join,3,4\n"
                                      "0.20,join,4,4\n"
                                      "0.60,leave,2\n");
  const RunResult r = run_vdmd("--source --agents 4 --spawn --scenario " +
                               path + " --chunk-rate 20 --stream-secs 1 "
                               "--deadline 45");
  SCOPED_TRACE(r.output);
  ASSERT_EQ(r.exit_code, 0);
  const std::vector<std::string> lines = lines_of(r.output);
  EXPECT_EQ(count_matching(lines, "vdmd: 4 agents ready"), 1);
  const std::string members = find_line(lines, "vdmd: members=");
  ASSERT_FALSE(members.empty());
  EXPECT_EQ(field_of(members, "members"), 4);  // source + 3 agents
  EXPECT_EQ(count_matching(lines, "vdmd: clean shutdown"), 1);
}

TEST(VdmdLoopback, MalformedScenarioFailsBeforeSpawning) {
  // A bad line is rejected with its line number before any agent is
  // forked, so nothing is left waiting for --deadline.
  const std::string path = write_temp("vdmd_bad_scenario.csv",
                                      "0.05,join,1,4\n"
                                      "0.10,join,x,4\n");
  const RunResult r = run_vdmd("--source --agents 4 --spawn --scenario " +
                               path + " --deadline 30");
  SCOPED_TRACE(r.output);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("line 2"), std::string::npos);
  EXPECT_EQ(r.output.find("agents ready"), std::string::npos);
}
