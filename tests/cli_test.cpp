// The command-line tools as a user meets them: `dipdc` and `dipdc-fuzz`
// run as child processes, checking exit codes and messages.  A backend
// name outside threads|tcp is outside input: both tools reject it with
// exit 2 and name the valid choices, and every valid name runs.
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

struct Outcome {
  int exit_code = -1;   // -1 when the child did not exit normally
  std::string output;   // stdout and stderr, interleaved
};

Outcome run_cli(const std::string& binary, const std::string& args) {
  const std::string command = "'" + binary + "' " + args + " 2>&1";
  Outcome out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    out.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  return out;
}

TEST(Cli, DipdcRejectsShmBackend) {
  const Outcome got = run_cli(DIPDC_BIN, "module1 --ranks=2 --backend=shm");
  EXPECT_EQ(got.exit_code, 2) << got.output;
  EXPECT_NE(got.output.find("unknown --backend 'shm' (threads|tcp)"),
            std::string::npos)
      << got.output;
}

TEST(Cli, DipdcFuzzRejectsShmBackend) {
  const Outcome got = run_cli(DIPDC_FUZZ_BIN, "--seeds=1 --backend=shm");
  EXPECT_EQ(got.exit_code, 2) << got.output;
  EXPECT_NE(got.output.find("unknown --backend 'shm' (threads|tcp)"),
            std::string::npos)
      << got.output;
}

TEST(Cli, DipdcRunsOnEveryBackend) {
  for (const char* backend : {"threads", "tcp"}) {
    SCOPED_TRACE(backend);
    const Outcome got = run_cli(
        DIPDC_BIN, std::string("module1 --ranks=2 --backend=") + backend);
    EXPECT_EQ(got.exit_code, 0) << got.output;
  }
}

TEST(Cli, DipdcFuzzRunsOnEveryBackend) {
  for (const char* backend : {"threads", "tcp"}) {
    SCOPED_TRACE(backend);
    const Outcome got = run_cli(
        DIPDC_FUZZ_BIN, std::string("--seeds=3 --backend=") + backend);
    EXPECT_EQ(got.exit_code, 0) << got.output;
    EXPECT_NE(got.output.find("3 seeds, 0 failures"), std::string::npos)
        << got.output;
  }
}

}  // namespace
