// Exit-code contract of the moheco_cli / moheco_d binaries:
//   0 -> success, 1 -> runtime failure, 2 -> argument/usage error.
// Scripts (and the CI smoke job) branch on this distinction, and usage
// errors must NAME the offending flag so a typo is a one-glance fix.
// These tests exec the real binaries from the build tree; they skip when
// the executables are absent (e.g. a library-only build).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace {

std::string cli_path() { return std::string(MOHECO_BUILD_DIR) + "/moheco_cli"; }
std::string daemon_path() { return std::string(MOHECO_BUILD_DIR) + "/moheco_d"; }

std::string example_deck() {
  return std::string(MOHECO_SOURCE_DIR) + "/examples/five_t_ota.cir";
}

/// Runs a shell command, captures combined stdout+stderr, returns the exit
/// code (-1 when the child did not exit normally).
int run(const std::string& command, std::string* output) {
  output->clear();
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, pipe)) > 0) {
    output->append(chunk, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

#define REQUIRE_BINARY(path)                                            \
  if (::access((path).c_str(), X_OK) != 0) {                            \
    GTEST_SKIP() << (path) << " not built; skipping exit-code checks";  \
  }

TEST(CliExitCodes, UsageErrorsExitTwoAndNameTheFlag) {
  REQUIRE_BINARY(cli_path());
  std::string out;
  // Malformed value: the message quotes the exact offending argument.
  EXPECT_EQ(run(cli_path() + " " + example_deck() + " --population=x", &out),
            2);
  EXPECT_NE(out.find("--population=x"), std::string::npos) << out;
  // Unknown flag.
  EXPECT_EQ(run(cli_path() + " " + example_deck() + " --frobnicate", &out), 2);
  EXPECT_NE(out.find("--frobnicate"), std::string::npos) << out;
  // Retired flags: every system solves through sparse LU, and every sample
  // runs the one scalar evaluation path.
  EXPECT_EQ(run(cli_path() + " " + example_deck() + " --backend=sparse", &out),
            2);
  EXPECT_NE(out.find("--backend"), std::string::npos) << out;
  EXPECT_EQ(run(cli_path() + " " + example_deck() + " --batch=8", &out), 2);
  EXPECT_NE(out.find("--batch"), std::string::npos) << out;
  // No deck and no control op: usage, not a crash.
  EXPECT_EQ(run(cli_path(), &out), 2);
  // Inconsistent serving flags: --op without --connect, --job without --op.
  EXPECT_EQ(run(cli_path() + " --op=stats", &out), 2);
  EXPECT_NE(out.find("--connect"), std::string::npos) << out;
  EXPECT_EQ(run(cli_path() + " --connect=tcp:1 --job=3", &out), 2);
  // Out-of-range value.
  EXPECT_EQ(run(cli_path() + " " + example_deck() + " --population=2", &out),
            2);
  EXPECT_NE(out.find("--population"), std::string::npos) << out;
}

TEST(CliExitCodes, RuntimeFailuresExitOne) {
  REQUIRE_BINARY(cli_path());
  std::string out;
  // Well-formed arguments, but the deck file does not exist.
  EXPECT_EQ(run(cli_path() + " /nonexistent/deck.cir --estimate=50 --quiet",
                &out),
            1);
  // Well-formed arguments, but no daemon behind the endpoint.
  EXPECT_EQ(run(cli_path() + " " + example_deck() +
                    " --connect=/nonexistent/dir/d.sock --quiet",
                &out),
            1);
}

TEST(CliExitCodes, SuccessExitsZero) {
  REQUIRE_BINARY(cli_path());
  std::string out;
  EXPECT_EQ(run(cli_path() + " " + example_deck() +
                    " --estimate=60 --threads=1 --seed=3 --quiet",
                &out),
            0)
      << out;
}

TEST(DaemonExitCodes, UsageErrorsExitTwo) {
  REQUIRE_BINARY(daemon_path());
  std::string out;
  // No listener configured is an argument error, not a runtime one.
  EXPECT_EQ(run(daemon_path(), &out), 2);
  EXPECT_NE(out.find("no listener"), std::string::npos) << out;
  EXPECT_EQ(run(daemon_path() + " --tcp=notaport", &out), 2);
  EXPECT_NE(out.find("--tcp=notaport"), std::string::npos) << out;
  EXPECT_EQ(run(daemon_path() + " --bogus", &out), 2);
  EXPECT_NE(out.find("--bogus"), std::string::npos) << out;
  // Retired flag (jobs always evaluate one sample at a time).
  EXPECT_EQ(run(daemon_path() + " --batch=8", &out), 2);
  EXPECT_NE(out.find("--batch"), std::string::npos) << out;
  EXPECT_EQ(run(daemon_path() + " --queue-depth=0 --tcp=0", &out), 2);
}

}  // namespace
