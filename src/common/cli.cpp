#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/version.hpp"

namespace dvmc {

namespace {

bool parseCount(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;  // 19 digits < 2^63
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v == 0) return false;
  *out = v;
  return true;
}

bool parseInt(const std::string& s, std::int64_t* out) {
  if (s.empty()) return false;
  std::size_t k = 0;
  bool neg = false;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    k = 1;
  }
  if (k == s.size() || s.size() - k > 18) return false;
  std::int64_t v = 0;
  for (; k < s.size(); ++k) {
    if (s[k] < '0' || s[k] > '9') return false;
    v = v * 10 + (s[k] - '0');
  }
  *out = neg ? -v : v;
  return true;
}

}  // namespace

CliParser::CliParser(std::string binaryName, std::string description)
    : binaryName_(std::move(binaryName)),
      description_(std::move(description)) {}

CliParser& CliParser::add(Opt o) {
  opts_.push_back(std::move(o));
  return *this;
}

CliParser& CliParser::flag(const std::string& name, bool* target,
                           const std::string& help) {
  Opt o;
  o.name = name;
  o.help = help;
  o.boolTarget = target;
  return add(std::move(o));
}

CliParser& CliParser::option(const std::string& name, std::string* target,
                             const std::string& valueName,
                             const std::string& help) {
  Opt o;
  o.name = name;
  o.valueName = valueName;
  o.help = help;
  o.defaultValue = *target;
  o.parseValue = [target](const std::string& v) -> std::string {
    *target = v;
    return {};
  };
  return add(std::move(o));
}

CliParser& CliParser::option(const std::string& name, int* target,
                             const std::string& valueName,
                             const std::string& help) {
  Opt o;
  o.name = name;
  o.valueName = valueName;
  o.help = help;
  o.defaultValue = std::to_string(*target);
  o.parseValue = [target](const std::string& v) -> std::string {
    std::int64_t parsed = 0;
    if (!parseInt(v, &parsed)) return "'" + v + "' is not an integer";
    *target = static_cast<int>(parsed);
    return {};
  };
  return add(std::move(o));
}

CliParser& CliParser::option(const std::string& name, std::uint64_t* target,
                             const std::string& valueName,
                             const std::string& help) {
  Opt o;
  o.name = name;
  o.valueName = valueName;
  o.help = help;
  o.defaultValue = std::to_string(*target);
  o.parseValue = [target](const std::string& v) -> std::string {
    // Accepts 0x-prefixed values too (seeds are conventionally hex).
    if (v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X')) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v.c_str(), &end, 16);
      if (end == nullptr || *end != '\0') {
        return "'" + v + "' is not a number";
      }
      *target = parsed;
      return {};
    }
    std::int64_t parsed = 0;
    if (!parseInt(v, &parsed) || parsed < 0) {
      return "'" + v + "' is not a non-negative integer";
    }
    *target = static_cast<std::uint64_t>(parsed);
    return {};
  };
  return add(std::move(o));
}

CliParser& CliParser::count(const std::string& name, std::uint64_t* target,
                            const std::string& valueName,
                            const std::string& help) {
  Opt o;
  o.name = name;
  o.valueName = valueName;
  o.help = help;
  o.defaultValue = std::to_string(*target);
  o.parseValue = [target](const std::string& v) -> std::string {
    std::uint64_t parsed = 0;
    if (!parseCount(v, &parsed)) {
      return "'" + v + "' is not a positive integer";
    }
    *target = parsed;
    return {};
  };
  return add(std::move(o));
}

CliParser& CliParser::path(const std::string& name, std::string* target,
                           const std::string& valueName,
                           const std::string& help) {
  Opt o;
  o.name = name;
  o.valueName = valueName;
  o.help = help;
  o.defaultValue = *target;
  o.parseValue = [target](const std::string& v) -> std::string {
    if (v.empty()) return "empty output path";
    // Append-mode probe: verifies writability (creating the file if
    // absent) without clobbering content the binary writes later.
    std::ofstream probe(v, std::ios::app);
    if (!probe) return "cannot open '" + v + "' for writing";
    *target = v;
    return {};
  };
  return add(std::move(o));
}

CliParser& CliParser::optionFn(
    const std::string& name, const std::string& valueName,
    const std::string& help,
    std::function<std::string(const std::string&)> parse) {
  Opt o;
  o.name = name;
  o.valueName = valueName;
  o.help = help;
  o.parseValue = std::move(parse);
  return add(std::move(o));
}

CliParser& CliParser::alias(const std::string& shortName) {
  if (!opts_.empty()) opts_.back().shortName = shortName;
  return *this;
}

CliParser& CliParser::passthroughPrefix(const std::string& prefix) {
  passthrough_.push_back(prefix);
  return *this;
}

CliParser& CliParser::noPositionals() {
  noPositionals_ = true;
  return *this;
}

CliParser& CliParser::usageLine(const std::string& usage) {
  usage_ = usage;
  return *this;
}

CliParser& CliParser::exitOnError(bool v) {
  exitOnError_ = v;
  return *this;
}

int CliParser::fail(const std::string& msg) {
  error_ = msg;
  if (exitOnError_) {
    std::fprintf(stderr, "%s: %s\n", binaryName_.c_str(), msg.c_str());
    std::fprintf(stderr, "try: %s --help\n", binaryName_.c_str());
    std::exit(2);
  }
  return -1;
}

int CliParser::parse(int argc, char** argv) {
  error_.clear();
  helpRequested_ = false;
  versionRequested_ = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      helpRequested_ = true;
      if (exitOnError_) {
        std::fputs(helpText().c_str(), stdout);
        std::exit(0);
      }
      continue;
    }
    if (arg == "--version") {
      versionRequested_ = true;
      if (exitOnError_) {
        std::printf("%s\n", versionString());
        std::exit(0);
      }
      continue;
    }
    if (arg == "--help-markdown") {
      helpRequested_ = true;
      if (exitOnError_) {
        std::fputs(markdownTable().c_str(), stdout);
        std::exit(0);
      }
      continue;
    }
    const Opt* matched = nullptr;
    std::string value;
    bool haveValue = false;
    for (const Opt& o : opts_) {
      if (arg == o.name || (!o.shortName.empty() && arg == o.shortName)) {
        matched = &o;
        break;
      }
      if (o.parseValue && arg.size() > o.name.size() &&
          arg.compare(0, o.name.size(), o.name) == 0 &&
          arg[o.name.size()] == '=') {
        matched = &o;
        value = arg.substr(o.name.size() + 1);
        haveValue = true;
        break;
      }
    }
    if (matched == nullptr) {
      if (arg.size() > 1 && arg[0] == '-' && arg != "-") {
        bool pass = false;
        for (const std::string& p : passthrough_) {
          if (arg.compare(0, p.size(), p) == 0) {
            pass = true;
            break;
          }
        }
        if (!pass) return fail("unknown option '" + arg + "'");
      } else if (noPositionals_ && arg != "-") {
        return fail("unexpected operand '" + arg + "'");
      }
      argv[out++] = argv[i];
      continue;
    }
    if (matched->boolTarget != nullptr) {
      *matched->boolTarget = true;
      continue;
    }
    if (!haveValue) {
      if (i + 1 >= argc) {
        return fail(matched->name + " requires a value");
      }
      value = argv[++i];
    }
    const std::string err = matched->parseValue(value);
    if (!err.empty()) return fail("invalid " + matched->name + ": " + err);
  }
  argv[out] = nullptr;
  return out;
}

std::string CliParser::helpText() const {
  std::string s = binaryName_ + " — " + description_ + "\n";
  if (!usage_.empty()) s += usage_ + "\n";
  s += "\noptions:\n";
  for (const Opt& o : opts_) {
    std::string head = "  " + o.name;
    if (!o.shortName.empty()) head += ", " + o.shortName;
    if (!o.valueName.empty()) head += " " + o.valueName;
    s += head;
    if (head.size() < 30) {
      s += std::string(30 - head.size(), ' ');
    } else {
      s += "\n" + std::string(30, ' ');
    }
    s += o.help;
    if (!o.defaultValue.empty()) s += " (default: " + o.defaultValue + ")";
    s += "\n";
  }
  s += "  --help, -h                  show this message and exit\n";
  s += "  --version                   print the build identity and exit\n";
  return s;
}

std::string CliParser::markdownTable() const {
  std::string s = "| Flag | Value | Description |\n|---|---|---|\n";
  for (const Opt& o : opts_) {
    std::string name = "`" + o.name + "`";
    if (!o.shortName.empty()) name += ", `" + o.shortName + "`";
    std::string value = o.valueName.empty() ? "—" : "`" + o.valueName + "`";
    std::string help = o.help;
    if (!o.defaultValue.empty()) help += " (default: " + o.defaultValue + ")";
    s += "| " + name + " | " + value + " | " + help + " |\n";
  }
  return s;
}

}  // namespace dvmc
