// Fork-isolated task execution with a pipe result channel.
//
// Used by bench/stream_scalability for per-case peak-RSS isolation:
// getrusage is a process-lifetime high watermark, so every measured case
// needs its own process. A task is a callable returning a byte payload; the
// child writes [u64 length][bytes] on its end of the pipe and _exit()s, the
// parent reads the payload back and collects the child's exit status and
// rusage from wait4.
//
// Deadlock discipline for fan-out (fork_run_all): fork ALL children first,
// then read each pipe to completion, and only then reap. Children never
// block on each other — a child whose payload exceeds the pipe capacity
// simply waits until the parent's read loop reaches its pipe — and the
// parent never waits on a child whose pipe it has not yet drained, which is
// the classic pipe-capacity deadlock.
//
// Exit-status contract: exit_code() is the child's real _exit code
// (WEXITSTATUS), or 128+signal when the child died on a signal — callers
// that re-exit with it (stream_scalability does) propagate the child's
// failure mode instead of swallowing it in a raw wait status. A task that
// throws exits with kExceptionExit.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "util/peak_rss.h"

namespace ccdn {

/// A fork-isolated unit of work: runs in the child, returns the bytes to
/// ship back to the parent.
using ForkTask = std::function<std::vector<std::uint8_t>()>;

struct ForkResult {
  /// The task's returned bytes, as read back from the pipe. Meaningful only
  /// when `complete` is true.
  std::vector<std::uint8_t> payload;
  /// Payload fully received AND child exited 0.
  bool complete = false;
  /// WEXITSTATUS on normal exit, 128+signal on a signal death, -1 when the
  /// child could not be reaped.
  int exit_code = 0;
  /// Child peak RSS (wait4 rusage), MiB.
  double peak_rss_mb = 0.0;
};

/// _exit code used when a task throws inside the child.
inline constexpr int kForkExceptionExit = 121;

namespace detail {

inline bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

inline bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

[[noreturn]] inline void child_main(int write_fd, const ForkTask& task) {
  int code = 0;
  try {
    const std::vector<std::uint8_t> payload = task();
    const std::uint64_t length = payload.size();
    if (!write_all(write_fd, &length, sizeof(length)) ||
        (length > 0 && !write_all(write_fd, payload.data(), payload.size()))) {
      code = 1;
    }
  } catch (...) {
    code = kForkExceptionExit;
  }
  // _exit, not exit: the child shares the parent's stdio buffers and atexit
  // registrations and must not flush or run them.
  _exit(code);
}

}  // namespace detail

/// Run every task in its own forked child, in task order; returns one
/// ForkResult per task, same order. Fan-out is real: all children run
/// concurrently, and the parent drains pipes before reaping (see the
/// header comment for the deadlock argument).
inline std::vector<ForkResult> fork_run_all(std::span<const ForkTask> tasks) {
  struct Child {
    pid_t pid = -1;
    int read_fd = -1;
  };
  std::vector<Child> children(tasks.size());
  std::vector<ForkResult> results(tasks.size());

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    int fds[2];
    if (::pipe(fds) != 0) {
      std::perror("fork_run: pipe");
      results[t].exit_code = -1;
      continue;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork_run: fork");
      ::close(fds[0]);
      ::close(fds[1]);
      results[t].exit_code = -1;
      continue;
    }
    if (pid == 0) {
      ::close(fds[0]);
      // Drop read ends inherited from earlier iterations so a sibling's
      // pipe cannot be held open by this child.
      for (std::size_t s = 0; s < t; ++s) {
        if (children[s].read_fd >= 0) ::close(children[s].read_fd);
      }
      detail::child_main(fds[1], tasks[t]);
    }
    ::close(fds[1]);
    children[t] = {pid, fds[0]};
  }

  // Phase 2: drain every pipe to completion.
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (children[t].pid < 0) continue;
    std::uint64_t length = 0;
    bool ok = detail::read_all(children[t].read_fd, &length, sizeof(length));
    if (ok) {
      results[t].payload.resize(length);
      ok = length == 0 || detail::read_all(children[t].read_fd,
                                           results[t].payload.data(), length);
    }
    if (!ok) results[t].payload.clear();
    results[t].complete = ok;
    ::close(children[t].read_fd);
  }

  // Phase 3: reap, collecting exit codes and child peak RSS.
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (children[t].pid < 0) continue;
    int status = 0;
    rusage usage{};
    if (::wait4(children[t].pid, &status, 0, &usage) != children[t].pid) {
      results[t].exit_code = -1;
      results[t].complete = false;
      continue;
    }
    results[t].peak_rss_mb = peak_rss_mb(usage);
    if (WIFEXITED(status)) {
      results[t].exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      results[t].exit_code = 128 + WTERMSIG(status);
    } else {
      results[t].exit_code = -1;
    }
    results[t].complete = results[t].complete && results[t].exit_code == 0;
  }
  return results;
}

/// Single-task convenience wrapper.
inline ForkResult fork_run(const ForkTask& task) {
  const ForkTask tasks[] = {task};
  return std::move(fork_run_all(std::span<const ForkTask>(tasks)).front());
}

}  // namespace ccdn
