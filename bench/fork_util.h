// Process isolation for per-point resource measurement: getrusage's peak
// RSS is a process-lifetime high-water mark, so measuring several sweep
// points in one process would report every point's peak as the max of all
// points run so far. Forking one child per point gives each point its own
// high-water mark, and a microbenchmark pass a heap no earlier pass has
// touched. A child starts with its parent's resident pages counted in its
// RSS, so fork points only from a process that is still small. Used by
// bsub_paper's matrix, fleet and scale_sweep experiments, bench_tcbf_ops
// and `bsub_scale --isolate`.
#pragma once

#include <cstddef>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace bsub::bench {

/// Runs `fn` in a forked child and ships its trivially-copyable result back
/// through a pipe. Returns false when the child failed (crashed, exited
/// nonzero, or short-wrote the result); the caller decides whether that
/// fails the whole sweep. On platforms without fork the point runs in
/// process (no isolation, but correct results).
template <class Result, class Fn>
bool run_isolated(Fn&& fn, Result& out) {
  static_assert(std::is_trivially_copyable_v<Result>,
                "the result crosses a pipe as raw bytes");
#if defined(__unix__) || defined(__APPLE__)
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const Result r = fn();
    const char* bytes = reinterpret_cast<const char*>(&r);
    std::size_t off = 0;
    while (off < sizeof r) {
      const ssize_t n = write(fds[1], bytes + off, sizeof r - off);
      if (n <= 0) _exit(2);
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  Result r;
  char* bytes = reinterpret_cast<char*>(&r);
  std::size_t off = 0;
  while (off < sizeof r) {
    const ssize_t n = read(fds[0], bytes + off, sizeof r - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (off != sizeof r || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return false;
  }
  out = r;
  return true;
#else
  out = fn();
  return true;
#endif
}

}  // namespace bsub::bench
