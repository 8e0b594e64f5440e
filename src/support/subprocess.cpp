#include "support/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace velev {

namespace {

/// The child's socketpair end after the fork: the first descriptor past
/// stdin, stdout and stderr.
constexpr int kChildFd = 3;

}  // namespace

Subprocess spawnWithSocket(const std::string& executable,
                           std::vector<std::string> args,
                           std::string* error) {
  // Both ends are close-on-exec from birth, with no window after a fork
  // as a later fcntl() would leave: nothing another thread execs inherits
  // them (one holding the parent's end would mask this child's death EOF).
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    if (error != nullptr)
      *error = std::string("socketpair: ") + std::strerror(errno);
    return {};
  }
  const int parentFd = fds[0];
  const int childFd = fds[1];

  // Everything the child touches between fork and exec must be prepared
  // here: only async-signal-safe calls are allowed in the forked child of
  // a multithreaded parent.
  const std::string childFdStr = std::to_string(kChildFd);
  for (std::string& a : args)
    if (a == kSubprocessFdArg) a = childFdStr;
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(executable.c_str()));
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error != nullptr) *error = std::string("fork: ") + std::strerror(errno);
    ::close(parentFd);
    ::close(childFd);
    return {};
  }
  if (pid == 0) {
    // The child keeps stdio and its socketpair end, moved to kChildFd;
    // every other descriptor of the parent (listeners, client
    // connections, the result store, sibling socketpairs) is closed, so a
    // client's socket never outlives the parent's close of it. dup2()
    // clears close-on-exec on the copy; when the end already is kChildFd,
    // the flag is cleared by hand.
    if (childFd == kChildFd)
      ::fcntl(kChildFd, F_SETFD, 0);
    else if (::dup2(childFd, kChildFd) != kChildFd)
      _exit(127);
    ::close_range(kChildFd + 1, ~0U, 0);
    ::execv(executable.c_str(), argv.data());
    _exit(127);  // exec failed: the parent sees instant EOF + status 127
  }
  ::close(childFd);
  return Subprocess{pid, parentFd};
}

bool reapProcess(pid_t pid, bool block, int* status) {
  if (pid <= 0) return false;
  int st = 0;
  const pid_t r = ::waitpid(pid, &st, block ? 0 : WNOHANG);
  if (r != pid) return false;
  if (status != nullptr) *status = st;
  return true;
}

bool waitReadable(int fd, int timeoutMs) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeoutMs);
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno != EINTR) return false;
  }
}

bool writeLineFd(int fd, const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool FdLineReader::next(std::string* line) {
  for (;;) {
    const std::size_t nl = pending_.find('\n', start_);
    if (nl != std::string::npos) {
      *line = pending_.substr(start_, nl - start_);
      start_ = nl + 1;
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    pending_.erase(0, start_);
    start_ = 0;
    if (eof_) return false;
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof_ = true;
      // A final unterminated fragment is not a line: the wire format is
      // newline-delimited, so a torn write from a killed peer is dropped.
      return false;
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace velev
