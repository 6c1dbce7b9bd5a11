// Fatal-signal crash handler (observability subsystem).
//
// A campaign shard that dies of SIGSEGV/SIGABRT/SIGBUS used to vanish
// without a trace: the --status-file kept saying "running" forever (so
// `dvmc_inspect watch` polled a corpse) and the JSONL log just stopped.
// This handler makes fatal death observable, best-effort and
// async-signal-cautiously:
//
//   * appends one final pre-rendered crash record to the --log-json
//     stream via raw write(2) on the sink's fd (every earlier line was
//     already per-line flushed, so the stream stays parseable) and
//     fdatasyncs it;
//   * overwrites the --status-file with a minimal dvmc-status snapshot
//     whose state is "crashed" (plus the signal number/name), built from
//     a prefix pre-rendered at arm time so the handler itself only runs
//     snprintf on integers, open(2), and write(2);
//   * then restores the previously-installed disposition and re-raises,
//     so sanitizer reports, core dumps, and the process's exit status are
//     exactly what they would have been without us.
//
// installCrashHandler() is idempotent and installed by obs::addObsFlags,
// so every binary on the shared CLI surface gets crash-surviving
// artifacts for free; the status path arms itself when --status-file
// creates the process StatusWriter.
#pragma once

namespace dvmc::obs {

/// Installs the fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
/// SIGILL), chaining to whatever was installed before. Idempotent.
void installCrashHandler();

/// Arms the status-snapshot side: on a fatal signal the handler writes a
/// dvmc-status snapshot with state "crashed" to `path`. Empty disarms.
/// Called automatically when --status-file creates the StatusWriter.
void setCrashStatusPath(const char* path);

}  // namespace dvmc::obs
