#include "serve/worker.hpp"

#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "core/request.hpp"
#include "sat/memo.hpp"
#include "support/json.hpp"
#include "support/subprocess.hpp"
#include "support/timer.hpp"

namespace velev::serve {

namespace {

/// Salvage the "id" of a line that failed to parse as a request (mirrors
/// the server's connection readers).
std::uint64_t salvageId(const JsonValue& v) {
  return v.isObject() ? v.uintAt("id") : 0;
}

core::VerifyResponse runOne(const core::VerifyRequest& req,
                            sat::SolveMemo* memo) {
  try {
    Timer t;
    const core::VerifyReport rep = core::verify(req, memo);
    return core::VerifyResponse::fromReport(req, rep, t.seconds());
  } catch (const std::exception& e) {
    return core::VerifyResponse::makeError(req.id, e.what());
  }
}

}  // namespace

int workerMain(const WorkerOptions& opts) {
  // A supervisor that died mid-write must surface as a failed write here,
  // not a process-wide SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  FdLineReader reader(opts.fd);
  sat::SolveMemo memo;
  int seen = 0;

  std::string line;
  while (reader.next(&line)) {
    if (line.empty()) continue;
    std::string perr;
    const std::optional<JsonValue> v = parseJson(line, &perr);
    if (!v.has_value()) {
      const core::VerifyResponse resp = core::VerifyResponse::makeError(
          0, "worker: malformed JSON: " + perr);
      if (!writeLineFd(opts.fd, compactJson(resp.toJson()))) return 0;
      continue;
    }
    if (const JsonValue* op = v->find("op");
        op != nullptr && op->isString()) {
      if (op->string == "ping") {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.kv("ok", true);
        w.kv("op", "ping");
        w.kv("pid", static_cast<std::int64_t>(::getpid()));
        w.endObject();
        if (!writeLineFd(opts.fd, compactJson(os.str()))) return 0;
      }
      // Unknown internal ops are ignored: the protocol is
      // supervisor-internal, not client-facing.
      continue;
    }
    ++seen;
    if (opts.crashAfter > 0 && seen >= opts.crashAfter)
      _exit(kWorkerCrashExit);  // deterministic "killed mid-solve"
    std::string err;
    const std::optional<core::VerifyRequest> req =
        core::VerifyRequest::fromJson(*v, &err);
    const core::VerifyResponse resp =
        req.has_value() ? runOne(*req, &memo)
                        : core::VerifyResponse::makeError(salvageId(*v), err);
    if (!writeLineFd(opts.fd, compactJson(resp.toJson()))) return 0;
  }
  return 0;  // EOF: the supervisor closed its end (shutdown or respawn)
}

}  // namespace velev::serve
