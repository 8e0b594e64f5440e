// A velev_serve daemon spawned for the serve_mix workload: started on a
// unix socket, connected to through serve::Client, and always stopped and
// reaped before the benchmark exits.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "serve/client.hpp"

namespace perfbench {

class Daemon {
 public:
  /// Fork + exec `binary` with `args`, then wait until `socketPath`
  /// accepts connections. ok() is false when it never came up.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         std::string socketPath);
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ok() const { return pid_ > 0 && ready_; }
  const std::string& error() const { return error_; }

  std::optional<velev::serve::Client> connect(std::string* error) const;

  /// VmHWM of the daemon process in KiB (0 when unreadable).
  std::size_t rssHighWaterKb() const;

  /// SIGTERM (the daemon's clean shutdown), then SIGKILL if it has not
  /// exited within a few seconds; always reaps. Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  bool ready_ = false;
  std::string socketPath_;
  std::string error_;
};

}  // namespace perfbench
