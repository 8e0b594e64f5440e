// The one persisted result store: finished verifications as an append-only
// file of core::VerifyResponse lines, shared by the grid runner
// (GridRunOptions::cacheDir, `velev_verify --grid --cache-dir`) and the
// velev_serve daemon (ServerOptions::cacheDir, `velev_serve --cache-dir`).
//
// FORMAT (docs/SERVICE.md): a store is a directory holding `results.jsonl`.
//   line 1   {"version": kResponseSchemaVersion, "git_describe": "<build>"}
//   line 2+  one compact VerifyResponse each, keyed by its own "cache_key"
// The key is VerifyRequest::cacheKeyHex(), which already mixes in the code
// version; the header drops a whole file written by another build or
// schema at once.
//
// OPEN reads the file, keeps every record VerifyResponse::parse accepts
// whose cache_key is 16 hex digits and whose result may be stored (a later
// line wins on a repeated key), drops a torn last line and any bad line,
// then rewrites the file to exactly the kept records (temp file, checked
// write, rename). That fold is the only compaction. A store that cannot be
// read degrades to cold; one that cannot be rewritten still returns what it
// read and drops every later put(). Nothing here ever fails loudly: the
// store saves work, it is not a store of record.
//
// POLICY: error responses, wall-clock `timeout` (it depends on machine
// load) and `skipped` (nothing ran) are never stored.
//
// One process may own a store at a time; put() is thread-safe within it.
#pragma once

#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/request.hpp"

namespace velev::core {

class ResultStore {
 public:
  /// Open the store in `dir` (created if missing) and fold its file. Records
  /// a `store.open` span and the `store.restored` / `store.dropped` counters
  /// on the calling thread's trace collector.
  explicit ResultStore(const std::string& dir);

  /// The records kept at open, one per cache key, in file order.
  const std::vector<VerifyResponse>& records() const { return records_; }

  /// The record kept at open under `cacheKey`, or nullptr.
  const VerifyResponse* find(std::string_view cacheKey) const;

  /// Append one response as a line and flush it. Returns false (and writes
  /// nothing) when the POLICY above refuses it, its cache key is not 16
  /// hex digits, or the store is not writable.
  bool put(const VerifyResponse& resp);

 private:
  std::vector<VerifyResponse> records_;
  std::unordered_map<std::string, std::size_t> index_;  // key -> records_
  std::mutex mutex_;   // guards out_
  std::ofstream out_;  // append handle; closed = puts are dropped
};

}  // namespace velev::core
