// Process + pipe helpers for the velev_serve supervisor/worker split.
//
// spawnWithSocket() forks and execs a child connected to the parent by one
// unix-domain socketpair. The child starts with stdin, stdout, stderr and
// its socketpair end (fd 3, substituted into the argv) and nothing else of
// the parent's; the parent's end is close-on-exec, so later-spawned
// siblings never inherit it. A SIGKILLed (or crashed) child makes the
// kernel close its end, so the parent's blocked read wakes with EOF — that
// is the supervisor's whole death-detection mechanism; no signal handler
// is involved.
//
// FdLineReader / writeLineFd carry the newline-delimited JSON wire format
// (docs/SERVICE.md) over the socketpair, mirroring what
// serve::VerifyServer's connection readers do over sockets.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace velev {

struct Subprocess {
  pid_t pid = -1;
  /// Parent's end of the socketpair (-1 on spawn failure). Close (or
  /// shutdown()) it to send the child EOF; read EOF from it means the
  /// child exited or was killed.
  int fd = -1;

  bool ok() const { return pid > 0 && fd >= 0; }
};

/// Placeholder argv element replaced by the decimal fd number of the
/// child's socketpair end.
inline constexpr const char* kSubprocessFdArg = "@FD@";

/// Fork + exec `executable` with `args` as argv[1..] (any element equal to
/// kSubprocessFdArg is replaced by the child's fd number). On failure
/// returns a non-ok() Subprocess with `*error` set. An exec failure inside
/// the child surfaces as an immediate EOF on the parent's fd plus exit
/// status 127.
Subprocess spawnWithSocket(const std::string& executable,
                           std::vector<std::string> args,
                           std::string* error = nullptr);

/// waitpid wrapper: reap `pid`, blocking or not. Returns true once the
/// child was reaped (raw waitpid status in `*status` when non-null).
bool reapProcess(pid_t pid, bool block, int* status = nullptr);

/// poll() until `fd` is readable (or EOF/error makes read() ready).
/// False on timeout. timeoutMs < 0 waits forever.
bool waitReadable(int fd, int timeoutMs);

/// Write `line` + '\n' to socket `fd` with a short-write loop; false on
/// error. A peer that is gone is EPIPE here, never a process-wide SIGPIPE.
bool writeLineFd(int fd, const std::string& line);

/// Buffered line reader over a blocking fd: next() strips the trailing
/// '\n' (and an optional '\r') and returns false on EOF or a read error.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  bool next(std::string* line);

 private:
  int fd_;
  std::string pending_;
  std::size_t start_ = 0;
  bool eof_ = false;
};

}  // namespace velev
