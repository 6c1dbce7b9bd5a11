// CliParser: the one flag-parsing implementation shared by every bench,
// tool, and example binary. These tests pin the parse contract the fleet
// relies on — =/space value forms, short aliases, strip-and-compact argv,
// eager validation with exit(2) semantics (exercised via exitOnError
// test mode), the passthrough escape, and the generated help and
// markdown tables that docs/observability.md embeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/version.hpp"
#include "obs/run_report.hpp"
#include "system/runner.hpp"

namespace dvmc {
namespace {

/// Mutable argv for parse(): returns pointers into `store`, argv[0] is the
/// binary name.
std::vector<char*> makeArgv(std::vector<std::string>& store) {
  std::vector<char*> argv;
  argv.reserve(store.size() + 1);
  for (std::string& s : store) argv.push_back(s.data());
  argv.push_back(nullptr);
  return argv;
}

TEST(CliParser, ParsesBothValueFormsAndStripsFlags) {
  CliParser cli("t", "test");
  std::string name;
  std::uint64_t n = 0;
  cli.option("--name", &name, "S", "a string");
  cli.count("--count", &n, "N", "a count");
  std::vector<std::string> args = {"t",       "keep1", "--name=alpha",
                                   "--count", "7",     "keep2"};
  std::vector<char*> argv = makeArgv(args);
  const int argc = cli.parse(static_cast<int>(args.size()), argv.data());
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "keep1");
  EXPECT_STREQ(argv[2], "keep2");
  EXPECT_EQ(argv[3], nullptr);
  EXPECT_EQ(name, "alpha");
  EXPECT_EQ(n, 7u);
}

TEST(CliParser, ShortAliasBindsToThePrecedingOption) {
  CliParser cli("t", "test");
  std::uint64_t jobs = 0;
  cli.count("--jobs", &jobs, "N", "workers").alias("-j");
  std::vector<std::string> args = {"t", "-j", "5"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), 1);
  EXPECT_EQ(jobs, 5u);
}

TEST(CliParser, UnknownFlagIsAnErrorUnderStrictMode) {
  CliParser cli("t", "test");
  cli.exitOnError(false);
  std::vector<std::string> args = {"t", "--nope"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), -1);
  EXPECT_NE(cli.error().find("--nope"), std::string::npos);
}

TEST(CliParser, PassthroughPrefixKeepsMatchingFlagsInArgv) {
  CliParser cli("t", "test");
  cli.exitOnError(false);
  cli.passthroughPrefix("--benchmark_");
  std::vector<std::string> args = {"t", "--benchmark_filter=Oracle"};
  std::vector<char*> argv = makeArgv(args);
  const int argc = cli.parse(static_cast<int>(args.size()), argv.data());
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--benchmark_filter=Oracle");
}

TEST(CliParser, CountRejectsZeroNegativeAndNonNumeric) {
  for (const char* bad : {"0", "-3", "12x", "", "99999999999999999999"}) {
    CliParser cli("t", "test");
    cli.exitOnError(false);
    std::uint64_t n = 1;
    cli.count("--n", &n, "N", "count");
    std::vector<std::string> args = {"t", std::string("--n=") + bad};
    std::vector<char*> argv = makeArgv(args);
    EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), -1)
        << "value '" << bad << "' should be rejected";
    EXPECT_EQ(n, 1u);
  }
}

TEST(CliParser, Uint64OptionAcceptsHex) {
  CliParser cli("t", "test");
  std::uint64_t seed = 0;
  cli.option("--seed", &seed, "S", "seed");
  std::vector<std::string> args = {"t", "--seed=0xCA3B41"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), 1);
  EXPECT_EQ(seed, 0xCA3B41u);
}

TEST(CliParser, IntOptionAcceptsNegativeValues) {
  CliParser cli("t", "test");
  int v = 0;
  cli.option("--delta", &v, "D", "delta");
  std::vector<std::string> args = {"t", "--delta", "-12"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), 1);
  EXPECT_EQ(v, -12);
}

TEST(CliParser, PathProbeRejectsUnwritableTargets) {
  CliParser cli("t", "test");
  cli.exitOnError(false);
  std::string p;
  cli.path("--out", &p, "FILE", "output");
  std::vector<std::string> args = {
      "t", "--out=/nonexistent-dvmc-dir/x/y.json"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), -1);
  EXPECT_TRUE(p.empty());
}

TEST(CliParser, MissingValueIsAnError) {
  CliParser cli("t", "test");
  cli.exitOnError(false);
  std::uint64_t n = 0;
  cli.count("--n", &n, "N", "count");
  std::vector<std::string> args = {"t", "--n"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), -1);
  EXPECT_NE(cli.error().find("requires a value"), std::string::npos);
}

TEST(CliParser, NoPositionalsRejectsOperands) {
  CliParser cli("t", "test");
  cli.exitOnError(false);
  cli.noPositionals();
  std::vector<std::string> args = {"t", "stray"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), -1);
  EXPECT_NE(cli.error().find("stray"), std::string::npos);
}

TEST(CliParser, FlagSetsBoolWithoutConsumingAValue) {
  CliParser cli("t", "test");
  bool on = false;
  cli.flag("--on", &on, "a switch");
  std::vector<std::string> args = {"t", "--on", "next"};
  std::vector<char*> argv = makeArgv(args);
  const int argc = cli.parse(static_cast<int>(args.size()), argv.data());
  ASSERT_EQ(argc, 2);
  EXPECT_TRUE(on);
  EXPECT_STREQ(argv[1], "next");
}

TEST(CliParser, HelpRequestedReportsInsteadOfExitingUnderTestMode) {
  CliParser cli("t", "test");
  cli.exitOnError(false);
  std::vector<std::string> args = {"t", "--help"};
  std::vector<char*> argv = makeArgv(args);
  cli.parse(static_cast<int>(args.size()), argv.data());
  EXPECT_TRUE(cli.helpRequested());
}

TEST(CliParser, HelpTextListsEveryOptionWithDefaults) {
  CliParser cli("demo", "a demo binary");
  cli.usageLine("usage: demo [options]");
  std::uint64_t n = 42;
  cli.count("--n", &n, "N", "the knob");
  const std::string help = cli.helpText();
  EXPECT_NE(help.find("demo — a demo binary"), std::string::npos);
  EXPECT_NE(help.find("usage: demo [options]"), std::string::npos);
  EXPECT_NE(help.find("--n N"), std::string::npos);
  EXPECT_NE(help.find("the knob (default: 42)"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(CliParser, MarkdownTableMatchesTheRegisteredOptions) {
  CliParser cli("demo", "a demo binary");
  std::uint64_t jobs = 1;
  cli.count("--jobs", &jobs, "N", "workers").alias("-j");
  const std::string md = cli.markdownTable();
  EXPECT_NE(md.find("| Flag | Value | Description |"), std::string::npos);
  EXPECT_NE(md.find("`--jobs`, `-j`"), std::string::npos);
  EXPECT_NE(md.find("workers (default: 1)"), std::string::npos);
}

// The layered flag groups: one parser carries the runner and obs groups,
// which is exactly what parseStandardFlags builds for every binary.
TEST(CliParser, LayeredFlagGroupsComposeOnOneParser) {
  obs::resetObs();
  const int savedJobs = defaultJobs();
  CliParser cli("t", "test");
  addRunnerFlags(cli);
  obs::addObsFlags(cli);
  std::vector<std::string> args = {"t", "--jobs=3", "--sample-every=128",
                                   "--capture-trace-spill"};
  std::vector<char*> argv = makeArgv(args);
  EXPECT_EQ(cli.parse(static_cast<int>(args.size()), argv.data()), 1);
  EXPECT_EQ(defaultJobs(), 3);
  EXPECT_EQ(obs::options().sampleEvery, 128u);
  EXPECT_TRUE(obs::options().captureTraceSpill);
  setDefaultJobs(savedJobs);
  obs::resetObs();
  obs::options() = obs::ObsOptions{};
}

TEST(CliParser, ObsGroupMarkdownCoversTheDocumentedFlags) {
  CliParser cli("t", "test");
  obs::addObsFlags(cli);
  const std::string md = cli.markdownTable();
  for (const char* flag :
       {"`--trace`", "`--report-json`", "`--forensics`", "`--capture-trace`",
        "`--capture-trace-limit`", "`--capture-trace-spill`",
        "`--sample-every`", "`--sample-capacity`", "`--log-level`",
        "`--log-json`", "`--profile-out`", "`--status-file`"}) {
    EXPECT_NE(md.find(flag), std::string::npos) << "missing " << flag;
  }
  obs::resetObs();
}

// --version is a built-in like --help: recognized by every parser without
// registration, reported via versionRequested() in test mode.
TEST(CliParser, VersionFlagIsBuiltIn) {
  CliParser cli("t", "test");
  cli.exitOnError(false);
  std::vector<std::string> args = {"t", "--version"};
  std::vector<char*> argv = makeArgv(args);
  cli.parse(static_cast<int>(args.size()), argv.data());
  EXPECT_TRUE(cli.versionRequested());
  EXPECT_FALSE(cli.helpRequested());
}

// The build identity every artifact records: "dvmc <describe> (<type>...)".
TEST(Version, VersionStringNamesTheBuild) {
  const std::string v = versionString();
  EXPECT_EQ(v.rfind("dvmc ", 0), 0u) << v;
  EXPECT_NE(v.find('('), std::string::npos) << v;
  EXPECT_STREQ(versionString(), versionString());  // stable pointer
}

}  // namespace
}  // namespace dvmc
