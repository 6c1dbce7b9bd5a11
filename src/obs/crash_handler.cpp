#include "obs/crash_handler.hpp"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "common/version.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"

namespace dvmc::obs {

namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
constexpr int kNumFatal = sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);

struct CrashState {
  std::atomic<bool> installed{false};
  std::atomic<bool> fired{false};
  // Fixed buffers: the handler may not allocate. Written at arm time
  // (single-threaded flag parsing), read at signal time.
  char statusPath[512] = {0};
  char generator[128] = {0};
  struct sigaction previous[kNumFatal];
};

CrashState& crashState() {
  static CrashState s;
  return s;
}

int signalSlot(int sig) {
  for (int i = 0; i < kNumFatal; ++i) {
    if (kFatalSignals[i] == sig) return i;
  }
  return -1;
}

/// write(2) a NUL-terminated buffer, ignoring short writes beyond a retry
/// (best-effort: this runs between a fault and death).
void writeAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= static_cast<size_t>(w);
  }
}

const char* fatalSignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
  }
  return "SIG?";
}

void crashHandler(int sig) {
  CrashState& s = crashState();
  // One shot: a fault inside the handler (or a second thread crashing)
  // must not recurse into the artifact writes.
  if (!s.fired.exchange(true)) {
    const unsigned long long unixMs =
        static_cast<unsigned long long>(time(nullptr)) * 1000ull;
    char buf[1024];

    // Final structured-log line on the already-line-flushed JSONL sink.
    const int logFd = Logger::instance().jsonlFdForCrash();
    if (logFd >= 0) {
      const int n = snprintf(
          buf, sizeof(buf),
          "{\"ts\":%llu,\"level\":\"error\",\"component\":\"crash\","
          "\"message\":\"fatal signal\",\"fields\":{\"signal\":%d,"
          "\"signalName\":\"%s\"}}\n",
          unixMs, sig, fatalSignalName(sig));
      if (n > 0) writeAll(logFd, buf, static_cast<size_t>(n));
      fdatasync(logFd);
    }

    // Minimal dvmc-status snapshot: state "crashed". Written directly (no
    // tmp+rename dance — a torn status beats a stale "running" one, and
    // the snapshot is small enough to land in one write anyway).
    if (s.statusPath[0] != '\0') {
      const int fd =
          open(s.statusPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        const int n = snprintf(
            buf, sizeof(buf),
            "{\"schema\":\"%s\",\"version\":%d,\"generator\":\"%s\","
            "\"updatedUnixMs\":%llu,\"phase\":\"crash\","
            "\"state\":\"crashed\",\"signal\":%d,\"signalName\":\"%s\"}\n",
            kStatusSchemaName, kStatusSchemaVersion, s.generator, unixMs,
            sig, fatalSignalName(sig));
        if (n > 0) writeAll(fd, buf, static_cast<size_t>(n));
        fdatasync(fd);
        close(fd);
      }
    }
  }

  // Restore the pre-install disposition (sanitizer handler, SIG_DFL, ...)
  // and re-raise so the process dies exactly as it would have without us.
  const int slot = signalSlot(sig);
  if (slot >= 0) {
    sigaction(sig, &s.previous[slot], nullptr);
  } else {
    signal(sig, SIG_DFL);
  }
  raise(sig);
}

}  // namespace

void installCrashHandler() {
  CrashState& s = crashState();
  if (s.installed.exchange(true)) return;
  // Pre-render everything the handler would otherwise have to format.
  snprintf(s.generator, sizeof(s.generator), "%s", versionString());
  struct sigaction act{};
  act.sa_handler = &crashHandler;
  sigemptyset(&act.sa_mask);
  act.sa_flags = SA_NODEFER;  // re-raise from inside the handler must fire
  for (int i = 0; i < kNumFatal; ++i) {
    sigaction(kFatalSignals[i], &act, &s.previous[i]);
  }
}

void setCrashStatusPath(const char* path) {
  CrashState& s = crashState();
  snprintf(s.statusPath, sizeof(s.statusPath), "%s",
           path != nullptr ? path : "");
}

}  // namespace dvmc::obs
