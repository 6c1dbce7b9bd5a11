// Offline consistency oracle CLI over "dvmc-trace" captures.
//
//   dvmc_oracle check FILE    first violation (if any); exit 0 clean, 1 not
//   dvmc_oracle explain FILE  every independent violation with the records
//                             involved, their byte offsets in FILE and, for
//                             an ordering cycle, every node and edge of it
//   dvmc_oracle stats FILE    trace header + constraint-graph statistics
//
// Exit codes: 0 = trace is consistent, 1 = violation found, 2 = usage or
// unreadable/malformed file.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "obs/run_report.hpp"
#include "obs/spans.hpp"
#include "verify/oracle.hpp"
#include "verify/trace.hpp"

using namespace dvmc;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dvmc_oracle {check|explain|stats} FILE\n"
               "  check    report the first violation; exit 0 iff clean\n"
               "  explain  report every independent violation in detail,\n"
               "           with each ordering cycle's records and edges\n"
               "  stats    trace header and constraint-graph statistics\n"
               "try: dvmc_oracle --help\n");
  return 2;
}

void printHeader(const verify::CapturedTrace& t) {
  std::printf("schema    %s v%d\n", verify::kTraceSchemaName,
              verify::kTraceSchemaVersion);
  std::printf("model     %s\n",
              modelName(ConsistencyModel(t.declaredModel)));
  std::printf("protocol  %s\n", t.protocol == 0 ? "directory" : "snooping");
  std::printf("cores     %u\n", t.numCores);
  std::printf("seed      %llu\n", (unsigned long long)t.seed);
  std::printf("records   %zu%s\n", t.records.size(),
              t.truncated ? " (TRUNCATED)" : "");
}

void printViolation(const verify::CapturedTrace& t,
                    const verify::OracleViolation& v, bool explain) {
  std::printf("violation [%s] %s\n", verify::violationKindName(v.kind),
              v.message.c_str());
  std::printf("  record A: %s (byte offset %zu)\n",
              verify::describeRecord(t, v.recordA).c_str(), v.byteA);
  if (v.recordB != v.recordA) {
    std::printf("  record B: %s (byte offset %zu)\n",
                verify::describeRecord(t, v.recordB).c_str(), v.byteB);
  }
  if (!explain || v.cycle.empty()) return;
  std::printf("  cycle of %zu node(s):\n", v.cycle.size());
  for (const verify::OracleViolation::CycleStep& s : v.cycle) {
    std::printf("    %s %s  --%s-->\n", s.barrier ? "(barrier)" : "         ",
                verify::describeRecord(t, s.record).c_str(), s.edge);
  }
}

int runOracle(int argc, char** argv) {
  CliParser cli("dvmc_oracle",
                "offline consistency oracle over dvmc-trace captures");
  cli.usageLine("dvmc_oracle [options] {check|explain|stats} FILE");
  obs::addObsFlags(cli);
  argc = cli.parse(argc, argv);

  if (argc != 3) return usage();
  const std::string cmd = argv[1];
  if (cmd != "check" && cmd != "explain" && cmd != "stats") return usage();

  verify::CapturedTrace t;
  std::string err;
  {
    obs::ScopedSpan span("read");
    if (!verify::readTraceFile(argv[2], &t, &err)) {
      std::fprintf(stderr, "dvmc_oracle: %s: %s\n", argv[2], err.c_str());
      return 2;
    }
  }

  verify::OracleOptions opts;
  if (cmd == "explain") opts.maxViolations = 16;

  verify::OracleResult res;
  {
    obs::ScopedSpan span("oracle");
    res = verify::checkTrace(t, opts);
  }

  if (cmd == "stats") {
    printHeader(t);
    const verify::OracleStats& s = res.stats;
    std::printf("reads     %zu (%zu forwarded, %zu initial, %zu ambiguous)\n",
                s.reads, s.forwardedReads, s.initReads, s.ambiguousReads);
    std::printf("writes    %zu\n", s.writes);
    std::printf("membars   %zu (%zu barrier nodes)\n", s.membars,
                s.virtualNodes);
    std::printf("edges     %zu (rf=%zu ws=%zu fr=%zu)\n", s.edges, s.rfEdges,
                s.wsEdges, s.frEdges);
    std::printf("verdict   %s\n", res.clean ? "CONSISTENT" : "VIOLATION");
    return res.clean ? 0 : 1;
  }

  if (cmd == "explain") printHeader(t);
  if (res.clean) {
    std::printf("CONSISTENT: %zu record(s) admit a legal %s execution\n",
                t.records.size(),
                modelName(ConsistencyModel(t.declaredModel)));
    return 0;
  }
  for (const verify::OracleViolation& v : res.violations) {
    printViolation(t, v, cmd == "explain");
  }
  std::printf("VIOLATION: %zu violation(s) found\n", res.violations.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = runOracle(argc, argv);
  const int obsRc = obs::finalizeObs();
  return rc != 0 ? rc : obsRc;
}
