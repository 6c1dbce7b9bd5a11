// Unified command-line parsing for every dvmc binary (bench, tools,
// examples).
//
// Before this existed, --jobs / --json / the observability flags were
// copy-pasted hand-rolled strncmp loops in every main. CliParser is the
// one implementation: a binary declares its typed options once, layers
// register their standard groups (addRunnerFlags, obs::addObsFlags,
// bench::addBenchFlags), and parse() gives the shared behavior everywhere:
//
//   * --flag=VALUE and --flag VALUE forms, plus short aliases (-j),
//   * eager validation — a zero count or unwritable path is a clear
//     error on stderr and exit(2) before the run, not a surprise after,
//   * auto-generated --help (exit 0) listing every option with its
//     default, and a hidden --help-markdown that emits the same table as
//     GitHub markdown (docs/observability.md embeds it),
//   * unknown `--flag` → usage error, exit 2 (positional operands pass
//     through untouched for the subcommand-style tools),
//   * a passthrough prefix escape hatch for google-benchmark's
//     --benchmark_* flags.
//
// parse() strips recognized flags from argv and returns the new argc, so
// positional handling in the tools works on what remains.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dvmc {

class CliParser {
 public:
  CliParser(std::string binaryName, std::string description);

  /// Value-less boolean option: presence sets *target to true.
  CliParser& flag(const std::string& name, bool* target,
                  const std::string& help);

  /// Typed value options. The value may follow as `--name=V` or `--name V`.
  CliParser& option(const std::string& name, std::string* target,
                    const std::string& valueName, const std::string& help);
  CliParser& option(const std::string& name, int* target,
                    const std::string& valueName, const std::string& help);
  CliParser& option(const std::string& name, std::uint64_t* target,
                    const std::string& valueName, const std::string& help);

  /// Strictly positive count (rejects zero, signs, and non-digits — the
  /// obs::parsePositiveCount contract).
  CliParser& count(const std::string& name, std::uint64_t* target,
                   const std::string& valueName, const std::string& help);

  /// Output-file path validated eagerly (append-mode open probe).
  CliParser& path(const std::string& name, std::string* target,
                  const std::string& valueName, const std::string& help);

  /// Fully custom option: `parse` returns an empty string on success or a
  /// human-readable error. Used by layers whose flags have side effects
  /// (e.g. --jobs feeds setDefaultJobs).
  CliParser& optionFn(const std::string& name, const std::string& valueName,
                      const std::string& help,
                      std::function<std::string(const std::string&)> parse);

  /// Registers a short alias (e.g. "-j") for the most recently added
  /// option.
  CliParser& alias(const std::string& shortName);

  /// Unknown flags beginning with `prefix` stay in argv instead of being
  /// an error (google-benchmark's --benchmark_* passthrough).
  CliParser& passthroughPrefix(const std::string& prefix);

  /// Any argument that still starts with '-' after parsing is an error.
  /// Default: leave non-option operands in argv for the caller.
  CliParser& noPositionals();

  /// Free-form usage line printed under the binary name in --help, e.g.
  /// "usage: dvmc_oracle check|explain|stats FILE".
  CliParser& usageLine(const std::string& usage);

  /// Tests: report errors via parse() returning -1 and error() instead of
  /// exit(2), and --help via helpRequested() instead of exit(0).
  CliParser& exitOnError(bool v);

  /// Strips recognized flags from argv and returns the new argc. On a bad
  /// value or unknown --flag: prints the error plus a usage hint to
  /// stderr and exits 2 (or returns -1 under exitOnError(false)). --help
  /// prints the option table to stdout and exits 0.
  int parse(int argc, char** argv);

  const std::string& error() const { return error_; }
  bool helpRequested() const { return helpRequested_; }
  /// True when --version was seen under exitOnError(false); the normal
  /// mode prints versionString() and exits 0 instead.
  bool versionRequested() const { return versionRequested_; }

  std::string helpText() const;
  /// The option table as a GitHub-markdown table (docs embed this via
  /// --help-markdown).
  std::string markdownTable() const;

 private:
  struct Opt {
    std::string name;        // "--jobs"
    std::string shortName;   // "-j" or empty
    std::string valueName;   // "N", "FILE", ... ; empty = boolean flag
    std::string help;
    std::string defaultValue;  // rendered in --help
    bool* boolTarget = nullptr;
    std::function<std::string(const std::string&)> parseValue;
  };

  CliParser& add(Opt o);
  int fail(const std::string& msg);

  std::string binaryName_;
  std::string description_;
  std::string usage_;
  std::vector<Opt> opts_;
  std::vector<std::string> passthrough_;
  bool noPositionals_ = false;
  bool exitOnError_ = true;
  bool helpRequested_ = false;
  bool versionRequested_ = false;
  std::string error_;
};

}  // namespace dvmc
