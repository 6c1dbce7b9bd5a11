#include "common/subprocess.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/parallel_for.hpp"
#include "common/rng.hpp"

extern char** environ;

namespace dvmc {

namespace {

std::uint64_t steadyMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Newest-kept bounded byte buffer: appends drop the *front* once the cap
/// is exceeded, so the retained bytes are always the stream's tail.
struct TailBuffer {
  explicit TailBuffer(std::size_t cap) : cap_(cap == 0 ? 1 : cap) {}

  void append(const char* p, std::size_t n) {
    total_ += n;
    if (n >= cap_) {
      data_.assign(p + (n - cap_), cap_);
      return;
    }
    if (data_.size() + n > cap_) data_.erase(0, data_.size() + n - cap_);
    data_.append(p, n);
  }

  std::string data_;
  std::uint64_t total_ = 0;
  std::size_t cap_;
};

void setCloexec(int fd) { fcntl(fd, F_SETFD, FD_CLOEXEC); }
void setNonblock(int fd) { fcntl(fd, F_SETFL, O_NONBLOCK); }

/// Child-side rlimit application (between fork and exec: only
/// async-signal-safe calls).
void applyLimits(const SubprocessLimits& limits) {
  rlimit rl;
  rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(limits.coreBytes);
  setrlimit(RLIMIT_CORE, &rl);
  if (limits.memoryBytes != 0) {
    rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(limits.memoryBytes);
    setrlimit(RLIMIT_AS, &rl);
  }
  if (limits.cpuSeconds != 0) {
    rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(limits.cpuSeconds);
    setrlimit(RLIMIT_CPU, &rl);
  }
}

/// Sends `sig` to the child's whole process group (it called setpgid), so
/// shell wrappers and grandchildren die with it. Falls back to the single
/// pid if the group is already gone.
void signalChildGroup(pid_t pid, int sig) {
  if (kill(-pid, sig) != 0) kill(pid, sig);
}

}  // namespace

const char* exitReasonName(ExitReason r) {
  switch (r) {
    case ExitReason::kCleanExit: return "clean-exit";
    case ExitReason::kNonZeroExit: return "nonzero-exit";
    case ExitReason::kSignaled: return "signaled";
    case ExitReason::kTimedOut: return "timed-out";
    case ExitReason::kSpawnFailed: return "spawn-failed";
  }
  return "?";
}

std::string ExitStatus::describe() const {
  switch (reason) {
    case ExitReason::kCleanExit: return "exit 0";
    case ExitReason::kNonZeroExit:
      return "exit " + std::to_string(exitCode);
    case ExitReason::kSignaled: {
      const char* name = strsignal(termSignal);
      return "signal " + std::to_string(termSignal) + " (" +
             (name != nullptr ? name : "?") + ")";
    }
    case ExitReason::kTimedOut:
      return termSignal == SIGKILL
                 ? std::string("timed out (SIGKILL escalation)")
                 : std::string("timed out");
    case ExitReason::kSpawnFailed: return "spawn failed";
  }
  return "?";
}

SubprocessResult runSubprocess(const SubprocessOptions& opt) {
  SubprocessResult res;
  if (opt.argv.empty()) {
    res.spawnError = "empty argv";
    return res;
  }

  // Pre-build the exec vectors: the post-fork child may only touch
  // async-signal-safe calls (the parent is usually multithreaded).
  std::vector<char*> argv;
  argv.reserve(opt.argv.size() + 1);
  for (const std::string& a : opt.argv) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  std::vector<std::string> envStore;
  std::vector<char*> envp;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    envp.push_back(*e);
  }
  envStore.reserve(opt.extraEnv.size());
  for (const auto& [key, value] : opt.extraEnv) {
    envStore.push_back(key + "=" + value);
    envp.push_back(const_cast<char*>(envStore.back().c_str()));
  }
  envp.push_back(nullptr);

  int outPipe[2], errPipe[2], execPipe[2];
  if (pipe(outPipe) != 0 || pipe(errPipe) != 0 || pipe(execPipe) != 0) {
    res.spawnError = std::string("pipe: ") + strerror(errno);
    return res;
  }
  setCloexec(execPipe[0]);
  setCloexec(execPipe[1]);

  const std::uint64_t start = steadyMs();
  const pid_t pid = fork();
  if (pid < 0) {
    res.spawnError = std::string("fork: ") + strerror(errno);
    for (int fd : {outPipe[0], outPipe[1], errPipe[0], errPipe[1],
                   execPipe[0], execPipe[1]}) {
      close(fd);
    }
    return res;
  }

  if (pid == 0) {
    // Child. Own process group so the parent can TERM/KILL the whole tree.
    setpgid(0, 0);
    applyLimits(opt.limits);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    dup2(outPipe[1], STDOUT_FILENO);
    dup2(errPipe[1], STDERR_FILENO);
    close(outPipe[0]);
    close(outPipe[1]);
    close(errPipe[0]);
    close(errPipe[1]);
    close(execPipe[0]);
    execvpe(argv[0], argv.data(), envp.data());
    // exec failed: report errno through the CLOEXEC pipe and die.
    const int err = errno;
    ssize_t ignored = write(execPipe[1], &err, sizeof(err));
    (void)ignored;
    _exit(127);
  }

  // Parent.
  setpgid(pid, pid);  // racing the child's own call is fine
  close(outPipe[1]);
  close(errPipe[1]);
  close(execPipe[1]);
  if (opt.onSpawn) opt.onSpawn(static_cast<int>(pid));

  // Did exec land? A closed pipe (0 bytes) means yes.
  int execErrno = 0;
  const ssize_t n = read(execPipe[0], &execErrno, sizeof(execErrno));
  close(execPipe[0]);
  if (n == static_cast<ssize_t>(sizeof(execErrno))) {
    int status = 0;
    waitpid(pid, &status, 0);
    close(outPipe[0]);
    close(errPipe[0]);
    res.spawnError =
        std::string("exec '") + opt.argv[0] + "': " + strerror(execErrno);
    res.wallMs = steadyMs() - start;
    return res;
  }

  setNonblock(outPipe[0]);
  setNonblock(errPipe[0]);
  TailBuffer outBuf(opt.maxCapturedBytes), errBuf(opt.maxCapturedBytes);
  int fds[2] = {outPipe[0], errPipe[0]};
  TailBuffer* bufs[2] = {&outBuf, &errBuf};

  const std::uint64_t deadlineAt =
      opt.deadlineMs != 0 ? start + opt.deadlineMs : UINT64_MAX;
  std::uint64_t killAt = UINT64_MAX;
  bool timedOut = false, sentKill = false, reaped = false;
  int status = 0;
  rusage childUsage{};

  auto drain = [&](int timeoutMs) {
    pollfd pfds[2];
    nfds_t nf = 0;
    for (int i = 0; i < 2; ++i) {
      if (fds[i] < 0) continue;
      pfds[nf].fd = fds[i];
      pfds[nf].events = POLLIN;
      ++nf;
    }
    if (nf == 0) {
      if (timeoutMs > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(timeoutMs));
      }
      return;
    }
    if (poll(pfds, nf, timeoutMs) <= 0) return;
    for (nfds_t p = 0; p < nf; ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (int i = 0; i < 2; ++i) {
        if (fds[i] != pfds[p].fd) continue;
        char chunk[4096];
        ssize_t got;
        while ((got = read(fds[i], chunk, sizeof(chunk))) > 0) {
          bufs[i]->append(chunk, static_cast<std::size_t>(got));
        }
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
          close(fds[i]);
          fds[i] = -1;
        }
      }
    }
  };

  while (true) {
    if (!reaped) {
      rusage ru{};
      const pid_t r = wait4(pid, &status, WNOHANG, &ru);
      if (r == pid) {
        reaped = true;
        childUsage = ru;
      }
    }
    if (reaped) {
      // Final drain: pick up whatever is buffered, then stop — a lingering
      // grandchild may hold the pipes open forever, and the capture is
      // explicitly bounded to the supervised child's lifetime.
      drain(0);
      break;
    }
    const std::uint64_t now = steadyMs();
    if (now >= killAt && !sentKill) {
      signalChildGroup(pid, SIGKILL);
      sentKill = true;
    } else if (now >= deadlineAt && !timedOut) {
      timedOut = true;
      signalChildGroup(pid, SIGTERM);
      killAt = now + opt.graceMs;
    }
    std::uint64_t next = deadlineAt;
    if (killAt < next) next = killAt;
    int timeoutMs = 50;
    if (next != UINT64_MAX && next > now &&
        next - now < static_cast<std::uint64_t>(timeoutMs)) {
      timeoutMs = static_cast<int>(next - now);
    }
    drain(timeoutMs);
  }
  for (int i = 0; i < 2; ++i) {
    if (fds[i] >= 0) close(fds[i]);
  }

  res.wallMs = steadyMs() - start;
  res.stdoutTail = std::move(outBuf.data_);
  res.stderrTail = std::move(errBuf.data_);
  res.stdoutBytes = outBuf.total_;
  res.stderrBytes = errBuf.total_;
  res.maxRssBytes = static_cast<std::uint64_t>(childUsage.ru_maxrss) * 1024u;
  res.spawnError.clear();

  ExitStatus& st = res.status;
  if (WIFEXITED(status)) {
    st.exitCode = WEXITSTATUS(status);
    st.reason = timedOut                ? ExitReason::kTimedOut
                : st.exitCode == 0      ? ExitReason::kCleanExit
                                        : ExitReason::kNonZeroExit;
  } else if (WIFSIGNALED(status)) {
    st.termSignal = WTERMSIG(status);
    st.coreDumped = WCOREDUMP(status);
    st.reason = timedOut ? ExitReason::kTimedOut : ExitReason::kSignaled;
  } else {
    st.reason = ExitReason::kSignaled;  // stopped/continued never happens
  }
  return res;
}

std::uint64_t retryDelayMs(const RetryPolicy& p, std::uint64_t taskKey,
                           int attempt) {
  if (attempt <= 1 || p.baseDelayMs == 0) return 0;
  const int retryIndex = attempt - 2;  // 0 for the first retry
  std::uint64_t d = p.baseDelayMs;
  for (int i = 0; i < retryIndex && d < p.maxDelayMs; ++i) d *= 2;
  if (d > p.maxDelayMs) d = p.maxDelayMs;
  if (d <= 1) return d;
  // Deterministic jitter in [d/2, d): same (seed, key, attempt) -> same
  // delay, so a rerun reproduces the schedule exactly.
  Rng rng(p.seed ^ (0x9E3779B97F4A7C15ull * (taskKey + 1)) ^
          (0xBF58476D1CE4E5B9ull * static_cast<std::uint64_t>(attempt)));
  return d / 2 + rng.below(d - d / 2);
}

std::vector<TaskOutcome> Supervisor::run(
    const std::vector<SupervisedTask>& tasks) {
  std::vector<TaskOutcome> outcomes(tasks.size());
  std::function<void(std::uint64_t)> sleep = sleepMs;
  if (!sleep) {
    sleep = [](std::uint64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  parallelFor(tasks.size(), workers_, [&](std::size_t i) {
    const SupervisedTask& task = tasks[i];
    TaskOutcome& out = outcomes[i];
    const int maxAttempts = policy_.maxAttempts > 0 ? policy_.maxAttempts : 1;
    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
      if (attempt > 1) sleep(retryDelayMs(policy_, task.key, attempt));
      if (onAttemptStart) onAttemptStart(i, attempt);
      SubprocessResult r = runSubprocess(task.makeOptions(attempt));
      const bool ok =
          isSuccess ? isSuccess(i, r) : r.status.clean();
      const bool willRetry = !ok && attempt < maxAttempts;
      if (onAttemptDone) onAttemptDone(i, attempt, r, willRetry);
      out.attempts = attempt;
      out.succeeded = ok;
      out.last = std::move(r);
      if (!willRetry) break;
    }
  });
  return outcomes;
}

}  // namespace dvmc
