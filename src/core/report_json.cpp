#include "core/report_json.hpp"

namespace velev::core {

namespace {

std::vector<std::pair<std::string, double>> stageSecondsOf(
    const StageSeconds& s) {
  return {{"sim", s.sim},
          {"rewrite", s.rewrite},
          {"translate", s.translate},
          {"sat", s.sat},
          {"bdd", s.bdd}};
}

}  // namespace

ReportCell makeReportCell(const GridCellResult& res, std::string label) {
  const VerifyResponse& resp = res.response;
  ReportCell c;
  c.robSize = res.cell.robSize;
  c.issueWidth = res.cell.issueWidth;
  c.label = std::move(label);
  c.verdict = verdictName(resp.verdict);
  c.reason = resp.reason;
  c.failedSlice = resp.failedSlice;
  c.wallSeconds = res.wallSeconds;
  c.satConflicts = resp.counter("sat.conflicts");
  c.peakArenaBytes = resp.peakArenaBytes;
  c.memHighWaterKb = resp.rssHighWaterKb;
  c.fellBack = res.fellBack;
  if (res.fellBack) c.firstVerdict = verdictName(res.firstVerdict);
  c.counters = resp.counters;
  c.stageSeconds = stageSecondsOf(resp.seconds);
  return c;
}

ReportCell makeReportCell(const models::OoOConfig& cfg, std::string label,
                          const VerifyReport& rep, double wallSeconds,
                          std::uint64_t memHighWaterKb) {
  ReportCell c;
  c.robSize = cfg.robSize;
  c.issueWidth = cfg.issueWidth;
  c.label = std::move(label);
  c.verdict = verdictName(rep.verdict());
  c.reason = rep.outcome.reason;
  c.failedSlice = rep.outcome.failedSlice;
  c.wallSeconds = wallSeconds;
  c.satConflicts = rep.satStats.conflicts;
  c.peakArenaBytes = rep.outcome.peakArenaBytes;
  c.memHighWaterKb = memHighWaterKb;
  c.counters = reportCounters(rep);
  c.stageSeconds = stageSecondsOf(rep.outcome.seconds);
  return c;
}

void writeReportCell(JsonWriter& w, const ReportCell& c) {
  w.beginObject();
  w.kv("rob_size", c.robSize);
  w.kv("width", c.issueWidth);
  if (!c.label.empty()) w.kv("label", c.label);
  w.kv("verdict", c.verdict);
  if (!c.reason.empty()) w.kv("reason", c.reason);
  if (c.failedSlice != 0) w.kv("failed_slice", c.failedSlice);
  w.kv("wall_seconds", c.wallSeconds);
  w.kv("sat_conflicts", c.satConflicts);
  w.kv("peak_arena_bytes", c.peakArenaBytes);
  w.kv("mem_high_water_kb", c.memHighWaterKb);
  if (c.fellBack) {
    w.kv("fell_back", true);
    w.kv("first_verdict", c.firstVerdict);
  }
  if (!c.counters.empty()) {
    w.key("counters");
    w.beginObject();
    for (const auto& [name, value] : c.counters) w.kv(name, value);
    w.endObject();
  }
  if (!c.stageSeconds.empty()) {
    w.key("stage_seconds");
    w.beginObject();
    for (const auto& [name, value] : c.stageSeconds) w.kv(name, value);
    w.endObject();
  }
  w.endObject();
}

}  // namespace velev::core
