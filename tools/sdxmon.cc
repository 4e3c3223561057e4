// sdxmon: operator CLI for the SDX observability exports.
//
//   sdxmon print <file>                   pretty-print a journal JSONL or a
//                                         BENCH_*.metrics.json snapshot
//                                         (format auto-detected)
//   sdxmon tail  <journal.jsonl> [--since=SEQ]
//                                         events with seq >= SEQ, plus a gap
//                                         warning when the ring overwrote
//                                         events the cursor never saw
//   sdxmon chain <journal.jsonl> <update-id>
//                                         the causal chain of one update:
//                                         every event carrying its id, in
//                                         order, with a per-stage summary
//   sdxmon diff  <before.json> <after.json> [threshold flags]
//                                         bench-metrics regression differ;
//                                         exits 1 when a threshold trips
//   sdxmon health <health.json>           renders a HealthReport export;
//                                         exits 1 on "degraded" status (the
//                                         CI smoke step relies on this)
//   sdxmon flows <flows.jsonl> [--top=N]  renders FlowRecorder JSONL: top-N
//                                         flows by estimated bytes + totals
//   sdxmon top <file> [--refresh=S] [--iterations=N]
//                                         live dashboard: convergence
//                                         percentiles, batch depth, drops,
//                                         flap leaders. Input is a
//                                         BENCH_*.timeseries.json (latest
//                                         sample) or a journal JSONL
//                                         (recomputed from events); with
//                                         --iterations>1 the file is
//                                         re-read every --refresh seconds
//   sdxmon convergence <journal.jsonl> [--update=ID] [--top=N]
//                                         per-update convergence breakdown
//                                         (ingest -> begin -> settle) from
//                                         the journal provenance chain
//
// diff flags (defaults in obs/bench_diff.h):
//   --max-counter-rel=R  --min-counter-abs=N
//   --max-batch-counter-rel=R  --min-batch-counter-abs=N
//     ("batch."-prefixed ingest-pipeline tallies get their own, tighter,
//      band: they are near-deterministic on a fixed workload)
//   --max-p50-ratio=R --max-p95-ratio=R --max-p99-ratio=R
//   --noise-floor-us=U
//   --max-convergence-p99=S  --max-convergence-overhead=R
//     (absolute bands: after-side convergence p99 ceiling in seconds, and
//      the convergence.overhead_ratio gauge budget)
//   --min-fastpath-speedup=R
//     (absolute gauge floor on the compiled-classifier speedup)
//   --min-rule-reduction=R
//     (absolute gauge floor on rules.isdx_reduction — the legacy/encoded
//      flow-rule ratio measured by fig7's iSDX column; off by default,
//      the CI bench lane pins it)
//
// Exit codes: 0 ok, 1 regression detected (diff/health only), 2
// usage/IO/parse.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_diff.h"
#include "obs/journal.h"
#include "obs/json.h"

namespace {

using sdx::obs::JournalEvent;

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;

int Usage() {
  std::cerr <<
      "usage: sdxmon <command> [args]\n"
      "  print <file>                        pretty-print journal JSONL or\n"
      "                                      metrics JSON (auto-detected)\n"
      "  tail  <journal.jsonl> [--since=SEQ] events from seq SEQ onward\n"
      "  chain <journal.jsonl> <update-id>   causal chain of one update\n"
      "  diff  <before.json> <after.json>    bench regression differ\n"
      "        [--max-counter-rel=R] [--min-counter-abs=N]\n"
      "        [--max-batch-counter-rel=R] [--min-batch-counter-abs=N]\n"
      "        [--max-p50-ratio=R] [--max-p95-ratio=R] [--max-p99-ratio=R]\n"
      "        [--noise-floor-us=U] [--max-telemetry-overhead=R]\n"
      "        [--min-fastpath-speedup=R]\n"
      "        [--min-rule-reduction=R]\n"
      "        [--max-convergence-p99=S]\n"
      "        [--max-convergence-overhead=R]\n"
      "  health <health.json|timeseries.json> render a health snapshot (exit\n"
      "                                      1 on degraded), or — for a\n"
      "                                      timeseries doc — the degraded\n"
      "                                      intervals over its window\n"
      "  flows <flows.jsonl> [--top=N]       render sampled flow records\n"
      "  top <timeseries.json|journal.jsonl> live convergence/ingest\n"
      "      [--refresh=S] [--iterations=N]  dashboard; re-reads the file\n"
      "                                      every S seconds (default 1)\n"
      "  convergence <journal.jsonl>         per-update latency breakdown\n"
      "      [--update=ID] [--top=N]         from the provenance chain\n";
  return kExitUsage;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --since=SEQ style flag; returns false when `arg` does not start with key.
bool FlagValue(const std::string& arg, const std::string& key,
               std::string* out) {
  if (arg.rfind(key + "=", 0) != 0) return false;
  *out = arg.substr(key.size() + 1);
  return true;
}

std::string FormatEvent(const JournalEvent& e) {
  char head[96];
  std::snprintf(head, sizeof(head), "%8llu  %10.6fs  u=%-6llu  %-20s",
                static_cast<unsigned long long>(e.seq), e.seconds,
                static_cast<unsigned long long>(e.update_id),
                sdx::obs::JournalEventTypeName(e.type));
  std::ostringstream os;
  os << head << " [" << e.arg0 << ", " << e.arg1 << ", " << e.arg2 << "]";
  if (!e.detail.empty()) os << "  " << e.detail;
  return os.str();
}

void PrintEvents(const std::vector<JournalEvent>& events) {
  std::cout << "     seq          ts  update    type                 "
               "[arg0, arg1, arg2]  detail\n";
  for (const JournalEvent& e : events) std::cout << FormatEvent(e) << "\n";
}

// A journal file is JSONL: its first non-blank line is an object with
// "seq" and "type" members. Everything else is treated as a metrics
// snapshot.
bool LooksLikeJournal(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      sdx::obs::json::Value v = sdx::obs::json::Parse(line);
      return v.is_object() && v.Find("seq") != nullptr &&
             v.Find("type") != nullptr;
    } catch (const std::exception&) {
      return false;
    }
  }
  return false;
}

void PrintMetrics(const sdx::obs::json::Value& doc) {
  const auto* counters = doc.Find("counters");
  const auto* gauges = doc.Find("gauges");
  const auto* histograms = doc.Find("histograms");
  if (counters == nullptr || gauges == nullptr || histograms == nullptr) {
    throw std::runtime_error("not a metrics snapshot (missing sections)");
  }
  std::cout << "counters:\n";
  for (const auto& [name, value] : counters->object) {
    std::cout << "  " << name << " = " << sdx::obs::json::Number(value.number)
              << "\n";
  }
  std::cout << "gauges:\n";
  for (const auto& [name, value] : gauges->object) {
    std::cout << "  " << name << " = " << sdx::obs::json::Number(value.number)
              << "\n";
  }
  std::cout << "histograms:\n";
  for (const auto& [name, h] : histograms->object) {
    std::cout << "  " << name << "  count=" << h.NumberAt("count")
              << " p50=" << sdx::obs::json::Number(h.NumberAt("p50"))
              << " p95=" << sdx::obs::json::Number(h.NumberAt("p95"))
              << " p99=" << sdx::obs::json::Number(h.NumberAt("p99"))
              << " max=" << sdx::obs::json::Number(h.NumberAt("max")) << "\n";
  }
}

int CmdPrint(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  const std::string text = ReadFile(args[0]);
  if (LooksLikeJournal(text)) {
    PrintEvents(sdx::obs::Journal::FromJsonl(text));
  } else {
    PrintMetrics(sdx::obs::json::Parse(text));
  }
  return kExitOk;
}

int CmdTail(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return Usage();
  std::uint64_t since = 0;
  if (args.size() == 2) {
    std::string value;
    if (!FlagValue(args[1], "--since", &value)) return Usage();
    since = std::stoull(value);
  }
  std::vector<JournalEvent> events =
      sdx::obs::Journal::FromJsonl(ReadFile(args[0]));
  std::vector<JournalEvent> selected;
  for (const JournalEvent& e : events) {
    if (e.seq >= since) selected.push_back(e);
  }
  if (!selected.empty() && since > 0 && selected.front().seq > since) {
    std::cout << "warning: " << (selected.front().seq - since)
              << " event(s) between seq " << since << " and "
              << selected.front().seq << " were overwritten\n";
  }
  PrintEvents(selected);
  return kExitOk;
}

int CmdChain(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  const std::uint64_t update_id = std::stoull(args[1]);
  std::vector<JournalEvent> events =
      sdx::obs::Journal::FromJsonl(ReadFile(args[0]));
  std::vector<JournalEvent> chain;
  for (const JournalEvent& e : events) {
    if (e.update_id == update_id) chain.push_back(e);
  }
  if (chain.empty()) {
    std::cout << "update " << update_id << ": no events (unknown id, or the "
              << "ring overwrote its window)\n";
    return kExitOk;
  }
  std::cout << "update " << update_id << ": " << chain.size()
            << " event(s) over "
            << sdx::obs::json::Number(chain.back().seconds -
                                      chain.front().seconds)
            << "s\n";
  PrintEvents(chain);
  std::map<std::string, std::size_t> by_type;
  for (const JournalEvent& e : chain) {
    ++by_type[sdx::obs::JournalEventTypeName(e.type)];
  }
  std::cout << "stages:";
  for (const auto& [name, count] : by_type) {
    std::cout << " " << name << "=" << count;
  }
  std::cout << "\n";
  return kExitOk;
}

int CmdDiff(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  sdx::obs::BenchDiffOptions options;
  for (std::size_t i = 2; i < args.size(); ++i) {
    std::string value;
    if (FlagValue(args[i], "--max-counter-rel", &value)) {
      options.max_counter_rel = std::stod(value);
    } else if (FlagValue(args[i], "--min-counter-abs", &value)) {
      options.min_counter_abs = std::stod(value);
    } else if (FlagValue(args[i], "--max-batch-counter-rel", &value)) {
      options.max_batch_counter_rel = std::stod(value);
    } else if (FlagValue(args[i], "--min-batch-counter-abs", &value)) {
      options.min_batch_counter_abs = std::stod(value);
    } else if (FlagValue(args[i], "--max-p50-ratio", &value)) {
      options.max_p50_ratio = std::stod(value);
    } else if (FlagValue(args[i], "--max-p95-ratio", &value)) {
      options.max_p95_ratio = std::stod(value);
    } else if (FlagValue(args[i], "--max-p99-ratio", &value)) {
      options.max_p99_ratio = std::stod(value);
    } else if (FlagValue(args[i], "--noise-floor-us", &value)) {
      options.noise_floor_seconds = std::stod(value) * 1e-6;
    } else if (FlagValue(args[i], "--max-telemetry-overhead", &value)) {
      options.max_telemetry_overhead = std::stod(value);
    } else if (FlagValue(args[i], "--min-fastpath-speedup", &value)) {
      options.min_fastpath_speedup = std::stod(value);
    } else if (FlagValue(args[i], "--min-rule-reduction", &value)) {
      options.min_rule_reduction = std::stod(value);
    } else if (FlagValue(args[i], "--max-convergence-p99", &value)) {
      options.max_convergence_p99_seconds = std::stod(value);
    } else if (FlagValue(args[i], "--max-convergence-overhead", &value)) {
      options.max_convergence_overhead = std::stod(value);
    } else {
      return Usage();
    }
  }
  sdx::obs::BenchDiff diff = sdx::obs::DiffMetrics(
      sdx::obs::json::Parse(ReadFile(args[0])),
      sdx::obs::json::Parse(ReadFile(args[1])), options);
  std::cout << diff.Render();
  return diff.regression ? kExitRegression : kExitOk;
}

// ---------------------------------------------------------------------------
// Per-update convergence spans recomputed from a journal dump. Mirrors the
// in-process ConvergenceTracker semantics (obs/convergence.h): the ingest
// stamp is the first kUpdateEnqueued/kBgpSessionRx event carrying the id,
// falling back to kBgpUpdateBegin for updates that bypassed both the
// session and the queue (ApplyBgpUpdate's batch-of-one path). An id whose
// ingest stamp the ring overwrote entirely is reported as truncated,
// never guessed.
struct UpdateSpan {
  std::uint64_t id = 0;
  std::uint64_t from_as = 0;
  double ingest = -1.0;   // first enqueue/session-rx timestamp
  double begin = -1.0;    // first kBgpUpdateBegin timestamp
  double last = 0.0;      // last event carrying the id
  std::size_t events = 0;
  bool coalesced = false;

  double ingest_or_begin() const { return ingest >= 0.0 ? ingest : begin; }
  bool truncated() const { return ingest_or_begin() < 0.0; }
  double e2e() const {
    return truncated() ? 0.0 : last - ingest_or_begin();
  }
  double queue_wait() const {
    if (truncated()) return 0.0;
    const double settle = begin >= 0.0 ? begin : last;
    const double start = ingest_or_begin();
    return settle > start ? settle - start : 0.0;
  }
};

std::vector<UpdateSpan> SpansFromJournal(
    const std::vector<JournalEvent>& events) {
  using sdx::obs::JournalEventType;
  std::map<std::uint64_t, UpdateSpan> by_id;
  for (const JournalEvent& e : events) {
    if (e.update_id == 0) continue;
    UpdateSpan& s = by_id[e.update_id];
    s.id = e.update_id;
    ++s.events;
    s.last = std::max(s.last, e.seconds);
    switch (e.type) {
      case JournalEventType::kUpdateEnqueued:
      case JournalEventType::kBgpSessionRx:
        if (s.ingest < 0.0) s.ingest = e.seconds;
        if (s.from_as == 0) s.from_as = e.arg0;
        break;
      case JournalEventType::kBgpUpdateBegin:
        if (s.begin < 0.0) s.begin = e.seconds;
        if (s.from_as == 0) s.from_as = e.arg0;
        break;
      case JournalEventType::kUpdateCoalesced:
        s.coalesced = true;
        break;
      default:
        break;
    }
  }
  std::vector<UpdateSpan> spans;
  spans.reserve(by_id.size());
  for (auto& [id, span] : by_id) spans.push_back(span);
  return spans;
}

// Nearest-rank percentile over an ascending-sorted vector.
double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(q * (sorted.size() - 1));
  return sorted[std::min(rank, sorted.size() - 1)];
}

int CmdConvergence(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 3) return Usage();
  std::uint64_t only_update = 0;
  std::size_t top = 20;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string value;
    if (FlagValue(args[i], "--update", &value)) {
      only_update = std::stoull(value);
    } else if (FlagValue(args[i], "--top", &value)) {
      top = std::stoull(value);
    } else {
      return Usage();
    }
  }
  std::vector<UpdateSpan> spans =
      SpansFromJournal(sdx::obs::Journal::FromJsonl(ReadFile(args[0])));
  if (only_update != 0) {
    spans.erase(std::remove_if(spans.begin(), spans.end(),
                               [only_update](const UpdateSpan& s) {
                                 return s.id != only_update;
                               }),
                spans.end());
    if (spans.empty()) {
      std::cout << "update " << only_update
                << ": no events (unknown id, or the ring overwrote its "
                << "window)\n";
      return kExitOk;
    }
  }
  std::size_t truncated = 0, coalesced = 0;
  std::vector<double> e2e, waits;
  for (const UpdateSpan& s : spans) {
    if (s.truncated()) {
      ++truncated;
      continue;
    }
    if (s.coalesced) ++coalesced;
    e2e.push_back(s.e2e());
    waits.push_back(s.queue_wait());
  }
  std::sort(e2e.begin(), e2e.end());
  std::sort(waits.begin(), waits.end());
  std::cout << spans.size() << " update(s): " << e2e.size() << " tracked, "
            << truncated << " chain-truncated, " << coalesced
            << " coalesced\n";
  if (!e2e.empty()) {
    std::cout << "e2e:        p50="
              << sdx::obs::json::Number(SortedPercentile(e2e, 0.50))
              << "s p95="
              << sdx::obs::json::Number(SortedPercentile(e2e, 0.95))
              << "s p99="
              << sdx::obs::json::Number(SortedPercentile(e2e, 0.99))
              << "s max=" << sdx::obs::json::Number(e2e.back()) << "s\n";
    std::cout << "queue_wait: p50="
              << sdx::obs::json::Number(SortedPercentile(waits, 0.50))
              << "s p95="
              << sdx::obs::json::Number(SortedPercentile(waits, 0.95))
              << "s p99="
              << sdx::obs::json::Number(SortedPercentile(waits, 0.99))
              << "s max=" << sdx::obs::json::Number(waits.back()) << "s\n";
  }
  std::sort(spans.begin(), spans.end(),
            [](const UpdateSpan& a, const UpdateSpan& b) {
              if (a.truncated() != b.truncated()) return b.truncated();
              if (a.e2e() != b.e2e()) return a.e2e() > b.e2e();
              return a.id < b.id;
            });
  std::cout << "  update      from_as    ingest      begin     settle      "
               "queue        e2e  events  note\n";
  for (std::size_t i = 0; i < spans.size() && i < top; ++i) {
    const UpdateSpan& s = spans[i];
    char buf[200];
    if (s.truncated()) {
      std::snprintf(buf, sizeof(buf),
                    "%8llu  %9llu         --  %9.6f  %9.6f         --         "
                    "--  %6zu  chain-truncated",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.from_as),
                    s.begin >= 0.0 ? s.begin : s.last, s.last, s.events);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%8llu  %9llu  %9.6f  %9.6f  %9.6f  %9.6f  %9.6f  %6zu  %s",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.from_as),
                    s.ingest_or_begin(),
                    s.begin >= 0.0 ? s.begin : s.last, s.last, s.queue_wait(),
                    s.e2e(), s.events, s.coalesced ? "coalesced" : "");
    }
    std::cout << buf << "\n";
  }
  if (spans.size() > top) {
    std::cout << "  ... " << (spans.size() - top) << " more (--top=N)\n";
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// sdxmon top: one dashboard frame. Timeseries documents render their most
// recent sample; journal dumps recompute the same figures from events.

double ValueOr(const std::map<std::string, sdx::obs::json::Value>& values,
               const std::string& name, double fallback) {
  auto it = values.find(name);
  return it != values.end() ? it->second.number : fallback;
}

bool HasValue(const std::map<std::string, sdx::obs::json::Value>& values,
              const std::string& name) {
  return values.find(name) != values.end();
}

void RenderTopFromTimeSeries(const sdx::obs::json::Value& doc) {
  const auto* samples = doc.Find("samples");
  if (samples == nullptr || samples->array.empty()) {
    std::cout << "timeseries: no samples yet\n";
    return;
  }
  const auto& sample = samples->array.back();
  const auto* values = sample.Find("values");
  if (values == nullptr) {
    throw std::runtime_error("timeseries sample missing \"values\"");
  }
  const auto& v = values->object;
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "sdxmon top  |  sample %zu/%zu  t=%.3fs  interval=%gs\n",
                samples->array.size(), samples->array.size(),
                sample.NumberAt("t"), doc.NumberAt("interval_seconds"));
  std::cout << buf;
  const char* kSegments[] = {"e2e", "queue_wait", "decision", "compile",
                             "flush"};
  std::cout << "convergence (seconds):\n";
  std::cout << "  segment           p50          p95          p99         "
               "max\n";
  bool any_segment = false;
  for (const char* segment : kSegments) {
    const std::string base = std::string("convergence.") + segment;
    if (!HasValue(v, base + ".p50")) continue;
    any_segment = true;
    std::snprintf(buf, sizeof(buf), "  %-11s %11.6f  %11.6f  %11.6f  %11.6f\n",
                  segment, ValueOr(v, base + ".p50", 0.0),
                  ValueOr(v, base + ".p95", 0.0),
                  ValueOr(v, base + ".p99", 0.0),
                  ValueOr(v, base + ".max", 0.0));
    std::cout << buf;
  }
  if (!any_segment) {
    std::cout << "  (no convergence tracking in this series)\n";
  } else {
    std::snprintf(buf, sizeof(buf),
                  "  tracked=%.0f chain_truncated=%.0f coalesced=%.0f "
                  "pending=%.0f\n",
                  ValueOr(v, "convergence.tracked", 0.0),
                  ValueOr(v, "convergence.chain_truncated", 0.0),
                  ValueOr(v, "convergence.coalesced_attributed", 0.0),
                  ValueOr(v, "convergence.pending", 0.0));
    std::cout << buf;
  }
  std::snprintf(buf, sizeof(buf),
                "ingest: queue_depth=%.0f batch.depth p95=%.1f "
                "batches=%.0f coalesced=%.0f\n",
                ValueOr(v, "health.queue_depth", 0.0),
                ValueOr(v, "batch.depth.p95", 0.0),
                ValueOr(v, "batch.count", 0.0),
                ValueOr(v, "batch.coalesced", 0.0));
  std::cout << buf;
  std::snprintf(buf, sizeof(buf),
                "health: degraded=%.0f batch_lag=%gs drops=%.0f "
                "(table_miss=%.0f)\n",
                ValueOr(v, "health.degraded", 0.0),
                ValueOr(v, "health.batch_lag_seconds", 0.0),
                ValueOr(v, "drop.total", 0.0),
                ValueOr(v, "drop.table_miss", 0.0));
  std::cout << buf;
  // Flap leaders: the tracker publishes its worst-offender table as
  // convergence.as<N>.updates / .worst_seconds pairs.
  std::vector<std::pair<std::string, double>> leaders;
  const std::string prefix = "convergence.as";
  const std::string suffix = ".updates";
  for (const auto& [name, value] : v) {
    if (name.rfind(prefix, 0) == 0 &&
        name.size() > prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      leaders.emplace_back(
          name.substr(prefix.size(),
                      name.size() - prefix.size() - suffix.size()),
          value.number);
    }
  }
  if (!leaders.empty()) {
    std::sort(leaders.begin(), leaders.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::cout << "flap leaders:\n";
    for (const auto& [as, updates] : leaders) {
      std::snprintf(buf, sizeof(buf), "  as%-8s %6.0f update(s)  worst=%gs\n",
                    as.c_str(), updates,
                    ValueOr(v, prefix + as + ".worst_seconds", 0.0));
      std::cout << buf;
    }
  }
}

void RenderTopFromJournal(const std::vector<JournalEvent>& events) {
  std::vector<UpdateSpan> spans = SpansFromJournal(events);
  std::size_t truncated = 0;
  std::vector<double> e2e, waits;
  std::map<std::uint64_t, std::pair<std::size_t, double>> by_as;
  for (const UpdateSpan& s : spans) {
    if (s.truncated()) {
      ++truncated;
      continue;
    }
    e2e.push_back(s.e2e());
    waits.push_back(s.queue_wait());
    auto& entry = by_as[s.from_as];
    ++entry.first;
    entry.second = std::max(entry.second, s.e2e());
  }
  std::sort(e2e.begin(), e2e.end());
  std::sort(waits.begin(), waits.end());
  std::cout << "sdxmon top  |  journal mode: " << events.size()
            << " event(s), " << spans.size() << " update(s), " << truncated
            << " chain-truncated\n";
  std::cout << "convergence (seconds):\n";
  std::cout << "  segment           p50          p95          p99         "
               "max\n";
  char buf[200];
  const auto row = [&](const char* name, const std::vector<double>& sorted) {
    std::snprintf(buf, sizeof(buf), "  %-11s %11.6f  %11.6f  %11.6f  %11.6f\n",
                  name, SortedPercentile(sorted, 0.50),
                  SortedPercentile(sorted, 0.95),
                  SortedPercentile(sorted, 0.99),
                  sorted.empty() ? 0.0 : sorted.back());
    std::cout << buf;
  };
  row("e2e", e2e);
  row("queue_wait", waits);
  if (!by_as.empty()) {
    std::vector<std::pair<std::uint64_t, std::pair<std::size_t, double>>>
        leaders(by_as.begin(), by_as.end());
    std::sort(leaders.begin(), leaders.end(), [](const auto& a,
                                                 const auto& b) {
      return a.second.first > b.second.first;
    });
    std::cout << "flap leaders:\n";
    for (std::size_t i = 0; i < leaders.size() && i < 8; ++i) {
      std::snprintf(buf, sizeof(buf),
                    "  as%-8llu %6zu update(s)  worst=%gs\n",
                    static_cast<unsigned long long>(leaders[i].first),
                    leaders[i].second.first, leaders[i].second.second);
      std::cout << buf;
    }
  }
}

int CmdTop(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 3) return Usage();
  double refresh_seconds = 1.0;
  std::size_t iterations = 1;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string value;
    if (FlagValue(args[i], "--refresh", &value)) {
      refresh_seconds = std::stod(value);
    } else if (FlagValue(args[i], "--iterations", &value)) {
      iterations = std::stoull(value);
    } else {
      return Usage();
    }
  }
  if (iterations == 0) iterations = 1;
  for (std::size_t frame = 0; frame < iterations; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(refresh_seconds));
      std::cout << "\x1b[2J\x1b[H";  // clear screen, home cursor
    }
    // Re-read each frame: the producer may still be appending.
    const std::string text = ReadFile(args[0]);
    if (LooksLikeJournal(text)) {
      RenderTopFromJournal(sdx::obs::Journal::FromJsonl(text));
    } else {
      RenderTopFromTimeSeries(sdx::obs::json::Parse(text));
    }
    std::cout.flush();
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// Degraded-interval scan over a timeseries document: walks health.degraded
// across samples and reports each contiguous degraded stretch (start time
// and duration). Exits 1 when the final sample is still degraded.
int HealthFromTimeSeries(const sdx::obs::json::Value& doc) {
  const auto* samples = doc.Find("samples");
  struct Interval {
    double start = 0.0;
    double end = 0.0;
    bool open = false;
  };
  std::vector<Interval> intervals;
  std::size_t with_verdict = 0;
  double first_t = 0.0, last_t = 0.0;
  bool degraded_now = false;
  for (std::size_t i = 0; i < samples->array.size(); ++i) {
    const auto& sample = samples->array[i];
    const double t = sample.NumberAt("t");
    if (i == 0) first_t = t;
    last_t = t;
    const auto* values = sample.Find("values");
    if (values == nullptr) continue;
    const auto it = values->object.find("health.degraded");
    if (it == values->object.end()) continue;
    ++with_verdict;
    const bool degraded = it->second.number != 0.0;
    if (degraded && !degraded_now) {
      intervals.push_back({t, t, true});
    } else if (degraded) {
      intervals.back().end = t;
    } else if (degraded_now) {
      intervals.back().open = false;
    }
    degraded_now = degraded;
  }
  std::cout << "timeseries health: " << samples->array.size()
            << " sample(s) over "
            << sdx::obs::json::Number(last_t - first_t) << "s ("
            << with_verdict << " with a health verdict)\n";
  if (intervals.empty()) {
    std::cout << "status: healthy for the whole window\n";
    return kExitOk;
  }
  std::cout << intervals.size() << " degraded interval(s):\n";
  for (const Interval& interval : intervals) {
    std::cout << "  t=" << sdx::obs::json::Number(interval.start)
              << "s for " << sdx::obs::json::Number(
                                 interval.end - interval.start)
              << "s" << (interval.open && degraded_now &&
                                 interval.end == last_t
                             ? "  (still degraded at end of window)"
                             : "")
              << "\n";
  }
  return degraded_now ? kExitRegression : kExitOk;
}

int CmdHealth(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  const sdx::obs::json::Value doc =
      sdx::obs::json::Parse(ReadFile(args[0]));
  // A timeseries export (interval_seconds + samples) gets the degraded-
  // interval scan; a HealthReport export gets the one-shot rendering.
  if (doc.Find("samples") != nullptr) return HealthFromTimeSeries(doc);
  const auto* status = doc.Find("status");
  if (status == nullptr || !status->is_string()) {
    throw std::runtime_error("not a health snapshot (missing \"status\")");
  }
  std::cout << "status: " << status->string << "\n";
  const auto* reasons = doc.Find("reasons");
  if (reasons != nullptr && !reasons->array.empty()) {
    for (const auto& reason : reasons->array) {
      std::cout << "  reason: " << reason.string << "\n";
    }
  }
  std::cout << "ingest:   queue_depth=" << doc.NumberAt("queue_depth")
            << " batch_lag=" << sdx::obs::json::Number(
                                   doc.NumberAt("batch_lag_seconds"))
            << "s updates_processed=" << doc.NumberAt("updates_processed")
            << "\n";
  std::cout << "last:     decision="
            << sdx::obs::json::Number(doc.NumberAt("last_decision_seconds"))
            << "s compile="
            << sdx::obs::json::Number(doc.NumberAt("last_compile_seconds"))
            << "s flush="
            << sdx::obs::json::Number(doc.NumberAt("last_flush_seconds"))
            << "s\n";
  std::cout << "sizes:    rib_prefixes=" << doc.NumberAt("rib_prefixes")
            << " flow_table_rules=" << doc.NumberAt("flow_table_rules")
            << " participants=" << doc.NumberAt("participants") << "\n";
  std::cout << "drops:    total=" << doc.NumberAt("total_drops")
            << " table_miss=" << doc.NumberAt("table_miss_drops") << "\n";
  const auto* flaps = doc.Find("flap_rates");
  if (flaps != nullptr && !flaps->object.empty()) {
    std::cout << "flap rates (updates/s):\n";
    for (const auto& [as, rate] : flaps->object) {
      std::cout << "  as" << as << " = "
                << sdx::obs::json::Number(rate.number) << "\n";
    }
  }
  return status->string == "degraded" ? kExitRegression : kExitOk;
}

int CmdFlows(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return Usage();
  std::size_t top = 20;
  if (args.size() == 2) {
    std::string value;
    if (!FlagValue(args[1], "--top", &value)) return Usage();
    top = std::stoull(value);
  }
  std::istringstream is(ReadFile(args[0]));
  std::string line;
  std::vector<sdx::obs::json::Value> records;
  std::uint64_t total_est_packets = 0, total_est_bytes = 0;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    records.push_back(sdx::obs::json::Parse(line));
    total_est_packets +=
        static_cast<std::uint64_t>(records.back().NumberAt("est_packets"));
    total_est_bytes +=
        static_cast<std::uint64_t>(records.back().NumberAt("est_bytes"));
  }
  std::sort(records.begin(), records.end(),
            [](const sdx::obs::json::Value& a, const sdx::obs::json::Value& b) {
              return a.NumberAt("est_bytes") > b.NumberAt("est_bytes");
            });
  std::cout << records.size() << " flow record(s), est "
            << total_est_packets << " packets / " << total_est_bytes
            << " bytes total\n";
  std::cout << "  in->out  src_as->dst_as      cookie  prio      "
               "est_pkts     est_bytes  close\n";
  for (std::size_t i = 0; i < records.size() && i < top; ++i) {
    const auto& r = records[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%5.0f->%-5.0f %6.0f->%-8.0f %9.0f  %4.0f  %12.0f  "
                  "%12.0f  %s",
                  r.NumberAt("in_port"), r.NumberAt("out_port"),
                  r.NumberAt("src_as"), r.NumberAt("dst_as"),
                  r.NumberAt("cookie"), r.NumberAt("priority"),
                  r.NumberAt("est_packets"), r.NumberAt("est_bytes"),
                  r.StringAt("close").c_str());
    std::cout << buf << "\n";
  }
  if (records.size() > top) {
    std::cout << "  ... " << (records.size() - top) << " more\n";
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "print") return CmdPrint(args);
    if (command == "tail") return CmdTail(args);
    if (command == "chain") return CmdChain(args);
    if (command == "diff") return CmdDiff(args);
    if (command == "health") return CmdHealth(args);
    if (command == "flows") return CmdFlows(args);
    if (command == "top") return CmdTop(args);
    if (command == "convergence") return CmdConvergence(args);
  } catch (const std::exception& e) {
    std::cerr << "sdxmon: " << e.what() << "\n";
    return kExitUsage;
  }
  return Usage();
}
