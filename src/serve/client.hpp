// Minimal blocking client for the velev_serve wire protocol: connect to a
// unix-domain or TCP endpoint, send one-line JSON requests, read one-line
// responses. Used by `velev_verify --connect`, the service smoke checks
// and the tests; the replay bench drives the server through handleLine
// instead.
//
// An endpoint string is parsed by Client::connect():
//   "unix:PATH"       unix-domain socket at PATH
//   "/path/to.sock"   (anything with a '/') — same
//   "tcp:HOST:PORT"   TCP
//   "HOST:PORT"       TCP
//   ":PORT" / "PORT"  TCP to 127.0.0.1
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/request.hpp"

namespace velev::serve {

class Client {
 public:
  /// Parse `endpoint` (grammar above) and connect. nullopt + `error` on
  /// failure.
  static std::optional<Client> connect(const std::string& endpoint,
                                       std::string* error = nullptr);
  static std::optional<Client> connectUnix(const std::string& path,
                                           std::string* error = nullptr);
  static std::optional<Client> connectTcp(const std::string& host, int port,
                                          std::string* error = nullptr);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one raw line (the newline is appended) and read one response
  /// line. Control ops go through here.
  std::optional<std::string> roundTripLine(const std::string& line,
                                           std::string* error = nullptr);

  /// Send a request, parse the response. A transport failure yields
  /// nullopt; a server-side error yields a response with `error` set —
  /// the caller distinguishes "could not ask" from "asked, was refused".
  std::optional<core::VerifyResponse> roundTrip(const core::VerifyRequest& req,
                                                std::string* error = nullptr);

 private:
  explicit Client(int fd) : fd_(fd) {}

  bool sendAll(const std::string& data, std::string* error);
  bool recvLine(std::string* line, std::string* error);

  int fd_ = -1;
  std::string buffer_;  // bytes past the last '\n' read
};

}  // namespace velev::serve
