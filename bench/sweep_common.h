// Shared scaffolding for the Figure 7/8/9/10 sweeps: build a full SDX
// runtime for an AMS-IX-like scenario with the §6.1 policy mix at a given
// participant count, varying the prefix population to move along the
// prefix-group axis.
#pragma once

#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "sdx/runtime.h"
#include "workload/policy_gen.h"
#include "workload/topology_gen.h"

namespace sdx::bench {

struct BuiltScenario {
  workload::IxpScenario scenario;
  workload::GeneratedPolicies policies;
};

// `policy_scale` multiplies the §6.1 fractions of participants that install
// policies; `coverage_fanout` adds application-specific-peering clauses
// toward that many top announcers, which injects the announcement-driven
// prefix-group diversity of Figure 6 (the paper's figures sweep prefix
// groups directly).
inline BuiltScenario MakeScenario(int participants, int prefixes,
                                  std::uint64_t seed,
                                  double policy_scale = 1.0,
                                  int coverage_fanout = 0,
                                  int coverage_max_per_sender = 0) {
  workload::TopologyParams topo;
  topo.participants = participants;
  topo.total_prefixes = prefixes;
  topo.seed = seed;
  BuiltScenario out;
  out.scenario = workload::TopologyGenerator(topo).Generate();
  workload::PolicyParams policy_params;
  policy_params.seed = seed + 1;
  policy_params.content_fraction =
      std::min(1.0, policy_params.content_fraction * policy_scale);
  policy_params.transit_top_fraction =
      std::min(1.0, policy_params.transit_top_fraction * policy_scale);
  policy_params.eyeball_top_fraction =
      std::min(1.0, policy_params.eyeball_top_fraction * policy_scale);
  policy_params.coverage_fanout = coverage_fanout;
  policy_params.coverage_max_per_sender = coverage_max_per_sender;
  out.policies =
      workload::PolicyGenerator(policy_params).Generate(out.scenario);
  return out;
}

// Loads the scenario into a fresh runtime and fully compiles it.
inline core::CompileStats BuildAndCompile(core::SdxRuntime& runtime,
                                          const BuiltScenario& built) {
  workload::Install(runtime, built.scenario, built.policies);
  return runtime.FullCompile();
}

// Writes a metrics snapshot to BENCH_<name>.metrics.json in the working
// directory, next to the figure's printed data, so each bench run leaves a
// machine-diffable record (per-stage compile times, drop counts, cache
// behavior) for cross-PR comparison via `sdxmon diff`. Called once per
// bench, usually on the largest configuration.
inline void WriteMetricsSnapshot(const obs::MetricsSnapshot& snapshot,
                                 const std::string& bench_name) {
  const std::string path = "BENCH_" + bench_name + ".metrics.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = snapshot.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("metrics snapshot: %s\n", path.c_str());
}

// Runtime-backed benches: sync component counters first, then snapshot.
inline void WriteMetricsSnapshot(core::SdxRuntime& runtime,
                                 const std::string& bench_name) {
  WriteMetricsSnapshot(runtime.SnapshotMetrics(), bench_name);
}

// Writes the runtime's time-series ring to BENCH_<name>.timeseries.json
// (the `sdxmon top` / `sdxmon health` input format, DESIGN.md §12). Takes
// one final synchronous sample first so the export always ends on the
// finished state, then stops the sampler thread — the samples stay
// readable after the time series is turned off. No-op when it was never
// enabled.
inline void WriteTimeSeries(core::SdxRuntime& runtime,
                            const std::string& bench_name) {
  if (runtime.timeseries() == nullptr) return;
  runtime.PublishHealth();
  runtime.SampleTimeSeriesNow();
  const double interval = runtime.timeseries_sampler() != nullptr
                              ? runtime.timeseries_sampler()->interval_seconds()
                              : 0.0;
  obs::TelemetryOptions telemetry = runtime.telemetry_options();
  telemetry.timeseries.enabled = false;
  runtime.ConfigureTelemetry(telemetry);
  const std::string path = "BENCH_" + bench_name + ".timeseries.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = runtime.timeseries()->ToJson(interval);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("timeseries: %s (%zu sample(s))\n", path.c_str(),
              runtime.timeseries()->size());
}

}  // namespace sdx::bench
