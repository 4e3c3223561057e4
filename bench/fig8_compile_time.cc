// Figure 8: compilation time as a function of the number of prefix groups,
// for 100/200/300 participants — extended with the parallel + incremental
// pipeline (DESIGN.md §8).
//
// Each configuration measures three compiles of the same control-plane
// state:
//   seq_sec — sequential from-scratch FullCompile (the paper's baseline);
//   par_sec — parallel from-scratch FullCompile (thread pool fan-out);
//   inc_sec — incremental recompile after a single-participant policy
//             edit, against a sequential full recompile of the same edit
//             (edit_seq_sec) for the speedup column.
// Every configuration is validated by the packet-level equivalence oracle
// (tests/oracle): sequential vs parallel on the initial state, sequential
// vs incremental after the edit. A single mismatched packet fails the run.
//
// Flags:
//   --quick        small sweep (CI artifact generation)
//   --threads N    pool size for the parallel/incremental runtimes
//                  (default: SDX_COMPILE_THREADS or hardware concurrency)
//   --no-journal   measure with the flight recorder detached
//   --no-oracle    skip the equivalence checks (pure timing)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "oracle.h"
#include "sweep_common.h"
#include "workload/seed.h"

using namespace sdx;

namespace {

// Sets one column's compile options (threads = 1 is the sequential
// column) and, under --no-journal, turns the journal off.
void ConfigureColumn(core::SdxRuntime& runtime, bool incremental, int threads,
                     bool journal) {
  core::RuntimeOptions options;
  options.compile.incremental = incremental;
  options.compile.threads = threads;
  runtime.Configure(options);
  if (!journal) {
    obs::TelemetryOptions telemetry;
    telemetry.journal.enabled = false;
    runtime.ConfigureTelemetry(telemetry);
  }
}

// The representative single-participant change: flip the first clause's
// match predicate on the first policy-bearing participant (keeps targets
// and prefix restrictions, so the FEC partition is stable and the compile
// cost is the policy-recompilation path, not a regroup).
bool EditOnePolicy(core::SdxRuntime& runtime,
                   const bench::BuiltScenario& built) {
  for (const auto& [as, clauses] : built.policies.outbound) {
    if (clauses.empty()) continue;
    auto edited = clauses;
    edited.front().match = policy::Predicate::SrcIp(
        net::IPv4Prefix(net::IPv4Address(0x80000000u), 1));
    runtime.SetOutboundPolicy(as, edited);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool journal = true;
  bool quick = false;
  bool oracle_checks = true;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-journal") == 0) journal = false;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--no-oracle") == 0) oracle_checks = false;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }
  const int pool_size =
      threads > 0 ? threads : util::ThreadPool::DefaultThreadCount();
  std::printf(
      "Figure 8: compile time vs prefix groups (journal %s, %d threads, "
      "oracle %s)\n",
      journal ? "on" : "off", pool_size, oracle_checks ? "on" : "off");
  std::printf("%5s %8s %8s %9s %9s %6s %12s %9s %6s %9s %7s\n",
              "parts", "prefixes", "groups", "seq_sec", "par_sec", "par_x",
              "edit_seq_sec", "inc_sec", "inc_x", "reused", "oracle");

  const std::vector<int> participant_counts =
      quick ? std::vector<int>{100} : std::vector<int>{100, 200, 300};
  const std::vector<int> prefix_counts =
      quick ? std::vector<int>{2000, 5000}
            : std::vector<int>{2000, 5000, 10000, 15000, 20000, 25000};

  bool all_equivalent = true;
  for (int participants : participant_counts) {
    for (int prefixes : prefix_counts) {
      const std::uint64_t seed =
          2000 + static_cast<std::uint64_t>(participants);
      auto built = bench::MakeScenario(participants, prefixes, seed,
                                       /*policy_scale=*/1.0,
                                       /*coverage_fanout=*/participants);

      core::SdxRuntime seq;
      ConfigureColumn(seq, /*incremental=*/false, /*threads=*/1, journal);
      const auto seq_stats = bench::BuildAndCompile(seq, built);

      core::SdxRuntime par;
      ConfigureColumn(par, /*incremental=*/false, threads, journal);
      const auto par_stats = bench::BuildAndCompile(par, built);

      core::SdxRuntime inc;
      ConfigureColumn(inc, /*incremental=*/true, threads, journal);
      // Largest config: record the metric trajectory across the full
      // build + edit + recompile cycle for BENCH_*.timeseries.json
      // (DESIGN.md §12).
      const bool largest = participants == participant_counts.back() &&
                           prefixes == prefix_counts.back();
      if (largest) {
        obs::TelemetryOptions telemetry = inc.telemetry_options();
        telemetry.timeseries = {.enabled = true, .interval_seconds = 0.02};
        inc.ConfigureTelemetry(telemetry);
      }
      bench::BuildAndCompile(inc, built);
      if (largest) inc.PublishHealth();

      bool equivalent = true;
      if (oracle_checks) {
        const auto initial = oracle::ComparePacketBehavior(
            seq, par, built.scenario, workload::DeriveSeed(seed, 11), 200);
        if (!initial.equivalent) {
          std::fprintf(stderr, "oracle mismatch (seq vs par):\n%s",
                       initial.report.c_str());
          equivalent = false;
        }
      }

      // Single-participant policy edit: sequential full recompile vs the
      // incremental path.
      EditOnePolicy(seq, built);
      EditOnePolicy(inc, built);
      const auto edit_seq_stats = seq.FullCompile();
      const auto inc_stats = inc.FullCompile();

      if (oracle_checks) {
        const auto after_edit = oracle::ComparePacketBehavior(
            seq, inc, built.scenario, workload::DeriveSeed(seed, 12), 200);
        if (!after_edit.equivalent) {
          std::fprintf(stderr, "oracle mismatch (seq vs inc):\n%s",
                       after_edit.report.c_str());
          equivalent = false;
        }
      }
      all_equivalent = all_equivalent && equivalent;

      std::printf(
          "%5d %8d %8zu %9.3f %9.3f %5.1fx %12.3f %9.3f %5.1fx %4zu/%-4zu "
          "%7s\n",
          participants, prefixes, seq_stats.prefix_group_count,
          seq_stats.seconds, par_stats.seconds,
          par_stats.seconds > 0 ? seq_stats.seconds / par_stats.seconds : 0.0,
          edit_seq_stats.seconds, inc_stats.seconds,
          inc_stats.seconds > 0 ? edit_seq_stats.seconds / inc_stats.seconds
                                : 0.0,
          inc_stats.blocks_reused, inc_stats.blocks_total,
          oracle_checks ? (equivalent ? "ok" : "FAIL") : "off");

      if (largest) {
        bench::WriteMetricsSnapshot(inc, "fig8_compile_time");
        bench::WriteTimeSeries(inc, "fig8_compile_time");
      }
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper): super-linear in prefix groups, higher with "
      "more participants. Parallel speedup approaches the pool size on "
      "multi-core hosts; the incremental recompile after a one-participant "
      "edit should be an order of magnitude under the full compile.\n");
  if (!all_equivalent) {
    std::fprintf(stderr, "equivalence oracle FAILED\n");
    return 1;
  }
  return 0;
}
