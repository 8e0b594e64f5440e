// The worker-process half of the velev_serve daemon.
//
// `velev_serve --worker FD` (spawned by serve::WorkerPool over a
// socketpair; never started by hand) drops straight into workerMain(),
// which loops over newline-delimited JSON lines on `fd`:
//
//   * {"op": "ping"}                          -> {"ok": true, "op": "ping",
//                                                 "pid": N} — the spawn
//                                                 handshake;
//   * a schema-v1 core::VerifyRequest object  -> verified in THIS process
//                                                (own Context, own
//                                                governor), answered with
//                                                one VerifyResponse line.
//
// The whole point of the process boundary: a verification that aborts,
// double-frees, or is SIGKILLed takes down only this worker — the
// supervisor sees EOF on the socketpair, retries the in-flight requests on
// a sibling and respawns the slot. The worker itself needs no crash
// handling beyond "exit on EOF".
//
// One content-addressed sat::SolveMemo (256 entries, its default) lives
// for the worker's lifetime and backs every verification without a memory
// budget: requests whose rewritten CNF is bit-identical (the paper's
// Table 5 — same issue width, any ROB size) replay one finished solve,
// result and counters exactly as a fresh solve would produce them.
//
// TEST HOOK: crashAfter = N (the `--crash-after N` flag, armed by the
// supervisor's WorkerPoolOptions::crashAfter for the first spawn of worker
// slot 0 only — respawned workers never inherit it, so a crash-retry
// cannot loop) makes the worker _exit(kWorkerCrashExit) immediately after
// reading its Nth request, before answering — a deterministic stand-in for
// "SIGKILLed mid-solve".
#pragma once

namespace velev::serve {

/// Exit status of the --crash-after hook (distinguishable from exec
/// failure's 127 and a clean EOF exit's 0 in waitpid statuses).
inline constexpr int kWorkerCrashExit = 57;

struct WorkerOptions {
  int fd = -1;         // supervisor socketpair end (required)
  int crashAfter = 0;  // 0 = off; N > 0 aborts on the Nth request
};

/// The worker main loop; returns the process exit code (0 on EOF).
int workerMain(const WorkerOptions& opts);

}  // namespace velev::serve
