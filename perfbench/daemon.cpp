#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

bool reapWithin(pid_t pid, std::chrono::milliseconds limit) {
  const auto deadline = Clock::now() + limit;
  for (;;) {
    const pid_t r = waitpid(pid, nullptr, WNOHANG);
    if (r == pid || r < 0) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               std::string socketPath)
    : socketPath_(std::move(socketPath)) {
  std::vector<std::string> argvStore;
  argvStore.push_back(binary);
  argvStore.insert(argvStore.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argvStore) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) {
    error_ = "fork failed";
    return;
  }
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even one killed hard.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }

  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      error_ = "velev_serve exited during start-up";
      return;
    }
    if (velev::serve::Client::connectUnix(socketPath_).has_value()) {
      ready_ = true;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  error_ = "velev_serve did not accept connections within 20 s";
}

std::optional<velev::serve::Client> Daemon::connect(std::string* error) const {
  return velev::serve::Client::connectUnix(socketPath_, error);
}

std::size_t Daemon::rssHighWaterKb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::size_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  if (!reapWithin(pid_, std::chrono::seconds(10))) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  pid_ = -1;
  unlink(socketPath_.c_str());
}

}  // namespace perfbench
