// Figure 10: (a) CDF of the time to process a single BGP update through
// the fast path (route-server decision + VNH allocation + per-prefix
// policy slice compilation + rule installation + re-advertisement), for
// 100/200/300 participants; (b) total burst-processing time of the
// batched ApplyUpdates pipeline (DESIGN.md §9) vs a sequential
// ApplyBgpUpdate replay of the same flap-heavy burst.
//
// The paper reports sub-second processing, under 100 ms most of the time,
// on the Python prototype. The shape to check: heavily sub-second with a
// short tail that grows with participant count. For (b) the gate is a
// >=3x total-time win at burst sizes >= 64: a flap burst touching 8
// distinct prefixes coalesces 8:1, so the batch pays one decision +
// compile + flush pass over 8 survivors where the sequential replay pays
// 64. The oracle asserts both replicas stay packet-for-packet identical;
// divergence or a missed speedup gate fails the run (exit 1) so CI
// catches regressions in the coalescing pipeline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "sweep_common.h"
#include "workload/update_gen.h"

using namespace sdx;

namespace {

// A flap-heavy burst: `distinct` prefixes (one per announcing member, the
// same peer re-announcing its own prefix), each announced size/distinct
// times with escalating local-pref, interleaved round-robin. Every update
// changes the best path; coalescing nets size -> distinct survivors.
std::vector<bgp::BgpUpdate> MakeFlapBurst(
    const core::SdxRuntime& runtime, const workload::IxpScenario& scenario,
    std::size_t distinct, std::size_t size, std::uint32_t& escalation) {
  struct Key {
    bgp::AsNumber as;
    net::IPv4Prefix prefix;
  };
  std::vector<Key> keys;
  for (const auto& member : scenario.members) {
    if (member.announced.empty()) continue;
    keys.push_back({member.as, member.announced.front()});
    if (keys.size() == distinct) break;
  }
  std::vector<bgp::BgpUpdate> burst;
  burst.reserve(size);
  while (burst.size() < size) {
    const std::uint32_t pref = escalation++;
    for (const auto& key : keys) {
      if (burst.size() == size) break;
      bgp::Announcement a;
      a.from_as = key.as;
      a.route.prefix = key.prefix;
      a.route.as_path = {key.as};
      a.route.local_pref = pref;
      a.route.next_hop = runtime.RouterIp(key.as);
      burst.push_back(bgp::BgpUpdate{a});
    }
  }
  return burst;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  std::printf("Figure 10: per-update fast-path processing time CDF\n");
  std::printf("%13s %9s %9s %9s %9s %9s %10s\n", "participants", "p10_ms",
              "p50_ms", "p90_ms", "p99_ms", "max_ms", "updates");
  for (int participants : {100, 200, 300}) {
    core::SdxRuntime runtime;
    auto built = bench::MakeScenario(participants, /*prefixes=*/4000,
                                     /*seed=*/4000 + participants,
                                     /*policy_scale=*/1.0,
                                     /*coverage_fanout=*/participants / 2);
    bench::BuildAndCompile(runtime, built);
    // Per-update convergence accounting (DESIGN.md §12) over the measured
    // stream; at the largest config a background sampler additionally
    // records the metric trajectory for BENCH_*.timeseries.json.
    runtime.EnableConvergenceTracking();
    if (participants == 300) runtime.EnableTimeSeries(/*interval_seconds=*/0.02);

    auto params = workload::UpdateStreamParams::Small(
        /*prefixes=*/4000, /*updates=*/600, /*seed=*/5);
    params.duration_seconds = 1e12;
    auto stream =
        workload::UpdateGenerator(params).GenerateFor(built.scenario);

    std::vector<double> latencies_ms;
    latencies_ms.reserve(stream.updates.size());
    std::size_t applied = 0;
    for (const auto& update : stream.updates) {
      auto stats = runtime.ApplyBgpUpdate(update);
      latencies_ms.push_back(stats.seconds * 1e3);
      // Periodic health verdicts so the time-series carries a health.*
      // trajectory (the sampler itself must not inspect the runtime).
      if (++applied % 100 == 0) runtime.PublishHealth();
    }
    std::sort(latencies_ms.begin(), latencies_ms.end());
    auto pct = [&](double p) {
      const auto index = static_cast<std::size_t>(
          p * static_cast<double>(latencies_ms.size() - 1));
      return latencies_ms[index];
    };
    std::printf("%13d %9.3f %9.3f %9.3f %9.3f %9.3f %10zu\n", participants,
                pct(0.10), pct(0.50), pct(0.90), pct(0.99),
                latencies_ms.back(), latencies_ms.size());
    if (participants == 300) {
      std::printf("%s", runtime.convergence()->Snapshot().ToText().c_str());
      bench::WriteMetricsSnapshot(runtime, "fig10_update_latency");
      bench::WriteTimeSeries(runtime, "fig10_update_latency");
      // Flight-recorder tail of the stream's recent past, for
      // `sdxmon print/tail/chain` (DESIGN.md §7).
      if (std::FILE* f = std::fopen("BENCH_fig10_update_latency.journal.jsonl",
                                    "w")) {
        const std::string jsonl = runtime.journal()->ToJsonl();
        std::fwrite(jsonl.data(), 1, jsonl.size(), f);
        std::fclose(f);
        std::printf("journal: BENCH_fig10_update_latency.journal.jsonl "
                    "(%zu events retained, %llu recorded)\n",
                    runtime.journal()->size(),
                    static_cast<unsigned long long>(
                        runtime.journal()->total_recorded()));
      }
    }
  }
  std::printf("\nexpected shape (paper): sub-second for virtually all "
              "updates (<100 ms most of the time on their Python "
              "prototype); latency grows with participant count.\n");

  // -------------------------------------------------------------------
  // (b) Batched ingest vs sequential replay on flap-heavy bursts.
  std::printf("\nBatched ingest (100 participants, 8 distinct prefixes "
              "flapping per burst):\n");
  std::printf("%10s %9s %9s %8s %10s %9s %7s\n", "burst_size", "seq_ms",
              "batch_ms", "speedup", "survivors", "coalesced", "oracle");

  auto built = bench::MakeScenario(/*participants=*/100, /*prefixes=*/4000,
                                   /*seed=*/4100, /*policy_scale=*/1.0,
                                   /*coverage_fanout=*/50);
  core::SdxRuntime seq;
  core::SdxRuntime bat;
  bench::BuildAndCompile(seq, built);
  bench::BuildAndCompile(bat, built);
  // Convergence through the batched path: queue-wait + coalesced
  // attribution show up here (part (a) is a batch-of-one per update).
  bat.EnableConvergenceTracking();
  bat.EnableTimeSeries(/*interval_seconds=*/0.02);

  bool gate_failed = false;
  std::uint32_t escalation = 500;
  for (std::size_t burst_size : {std::size_t{16}, std::size_t{64},
                                 std::size_t{128}}) {
    const auto burst = MakeFlapBurst(seq, built.scenario, /*distinct=*/8,
                                     burst_size, escalation);

    const auto seq_start = std::chrono::steady_clock::now();
    for (const auto& update : burst) seq.ApplyBgpUpdate(update);
    const double seq_s = SecondsSince(seq_start);

    const auto bat_start = std::chrono::steady_clock::now();
    const core::BatchStats stats = bat.ApplyUpdates(burst);
    const double bat_s = SecondsSince(bat_start);

    const oracle::OracleResult check = oracle::ComparePacketBehavior(
        seq, bat, built.scenario,
        /*seed=*/8000 + static_cast<std::uint64_t>(burst_size), 300);
    const double speedup = bat_s > 0.0 ? seq_s / bat_s : 0.0;
    std::printf("%10zu %9.2f %9.2f %7.1fx %10zu %9zu %7s\n", burst_size,
                seq_s * 1e3, bat_s * 1e3, speedup, stats.updates_applied,
                stats.updates_coalesced, check.equivalent ? "ok" : "FAIL");
    if (!check.equivalent) {
      std::fprintf(stderr, "oracle divergence at burst %zu:\n%s\n",
                   burst_size, check.report.c_str());
      return 1;
    }

    // Machine-diffable record of the win, alongside the batch.* counters
    // and the batch.depth histogram the runtime keeps itself.
    const std::string suffix = std::to_string(burst_size);
    bat.metrics().GetGauge("fig10.speedup.burst" + suffix).Set(speedup);
    bat.metrics()
        .GetGauge("fig10.coalesce_ratio.burst" + suffix)
        .Set(static_cast<double>(stats.updates_in) /
             static_cast<double>(std::max<std::size_t>(
                 1, stats.updates_applied)));
    if (burst_size >= 64 && speedup < 3.0) gate_failed = true;

    // Background coalescing pass between bursts, as in Figure 9.
    seq.FullCompile();
    bat.FullCompile();
    bat.PublishHealth();
  }
  std::printf("%s", bat.convergence()->Snapshot().ToText().c_str());
  bench::WriteMetricsSnapshot(bat, "fig10_batched");
  bench::WriteTimeSeries(bat, "fig10_batched");
  // Health snapshot artifact for `sdxmon health` (DESIGN.md §10): taken
  // after the final batch drained, so a healthy run reports status "ok"
  // with an empty queue — CI renders it and fails on "degraded".
  {
    const obs::HealthReport health = bat.HealthSnapshot();
    if (std::FILE* f =
            std::fopen("BENCH_fig10_update_latency.health.json", "w")) {
      const std::string json = health.ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("health: BENCH_fig10_update_latency.health.json "
                  "(status %s)\n",
                  health.degraded ? "degraded" : "ok");
    }
  }
  if (gate_failed) {
    std::fprintf(stderr, "FAIL: batched ingest under 3x faster than "
                 "sequential replay at burst >= 64\n");
    return 1;
  }
  std::printf("expected shape: batched total time tracks survivor count "
              "(8), not burst size; >=3x win at burst >= 64.\n");
  return 0;
}
