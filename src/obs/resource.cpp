#include "obs/resource.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>

#include "common/version.hpp"
#include "obs/crash_handler.hpp"
#include "obs/log.hpp"
#include "obs/run_report.hpp"

namespace dvmc::obs {

namespace {

std::uint64_t steadyMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t unixMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t timevalMs(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1000u +
         static_cast<std::uint64_t>(tv.tv_usec) / 1000u;
}

}  // namespace

Json ResourceUsage::toJson() const {
  Json j = Json::object();
  j.set("rssBytes", Json::num(rssBytes));
  j.set("peakRssBytes", Json::num(peakRssBytes));
  j.set("userCpuMs", Json::num(userCpuMs));
  j.set("sysCpuMs", Json::num(sysCpuMs));
  return j;
}

ResourceUsage sampleResourceUsage() {
  ResourceUsage u;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is kilobytes on Linux.
    u.peakRssBytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
    u.userCpuMs = timevalMs(ru.ru_utime);
    u.sysCpuMs = timevalMs(ru.ru_stime);
  }
  if (std::ifstream statm("/proc/self/statm"); statm) {
    std::uint64_t sizePages = 0, rssPages = 0;
    if (statm >> sizePages >> rssPages) {
      const long page = sysconf(_SC_PAGESIZE);
      u.rssBytes = rssPages * static_cast<std::uint64_t>(page > 0 ? page : 4096);
    }
  }
  if (u.rssBytes == 0) u.rssBytes = u.peakRssBytes;  // no procfs fallback
  // ru_maxrss only updates on certain kernel events and can lag the live
  // statm reading; keep the invariant peak >= current.
  if (u.peakRssBytes < u.rssBytes) u.peakRssBytes = u.rssBytes;
  return u;
}

StatusWriter::StatusWriter(std::string path, std::uint64_t minIntervalMs)
    : path_(std::move(path)), minIntervalMs_(minIntervalMs) {}

bool StatusWriter::update(const Json& body, bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t now = steadyMs();
  if (!force && lastWriteMs_ != 0 && now - lastWriteMs_ < minIntervalMs_) {
    return false;
  }

  Json root = Json::object();
  root.set("schema", Json::str(kStatusSchemaName));
  root.set("version", Json::num(std::uint64_t{kStatusSchemaVersion}));
  root.set("generator", Json::str(versionString()));
  root.set("updatedUnixMs", Json::num(unixMs()));
  root.set("resource", sampleResourceUsage().toJson());
  if (body.isObject()) {
    for (const auto& [key, value] : body.members()) root.set(key, value);
  }

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) {
      logError("obs", "cannot write status snapshot",
               Json::object().set("file", Json::str(tmp)));
      return false;
    }
    root.write(os, 2);
    os << "\n";
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    logError("obs", "cannot publish status snapshot",
             Json::object().set("file", Json::str(path_)));
    return false;
  }
  lastWriteMs_ = now;
  ++writes_;
  return true;
}

std::uint64_t StatusWriter::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

namespace {

struct StatusHolder {
  std::mutex mu;
  std::unique_ptr<StatusWriter> writer;
};

StatusHolder& statusHolder() {
  static StatusHolder h;
  return h;
}

}  // namespace

StatusWriter* activeStatusWriter() {
  if (options().statusFile.empty()) return nullptr;
  StatusHolder& h = statusHolder();
  std::lock_guard<std::mutex> lock(h.mu);
  if (!h.writer) {
    h.writer = std::make_unique<StatusWriter>(options().statusFile);
    // Arm the fatal-signal path: if this process dies of SIGSEGV/SIGABRT/
    // SIGBUS the crash handler finalizes this snapshot as state "crashed"
    // instead of leaving a stale "running" file behind.
    setCrashStatusPath(h.writer->path().c_str());
  }
  return h.writer.get();
}

void resetStatusWriterForTests() {
  StatusHolder& h = statusHolder();
  std::lock_guard<std::mutex> lock(h.mu);
  h.writer.reset();
  setCrashStatusPath(nullptr);
}

}  // namespace dvmc::obs
