// Randomized oracle mini-fuzz (ctest label: slow; excluded from the tier-1
// lane). Sweeps policy-bearing scenarios across participant/prefix counts
// and update bursts, asserting sequential / parallel / incremental
// compilation equivalence on every generation, within a fixed wall-clock
// budget (~60 s; the sweep stops early when the budget runs out).
//
// Deterministic: the master seed defaults to a constant and every derived
// seed is printed on failure. Override with SDX_ORACLE_SEED=<n> to explore
// or replay a different universe.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "oracle.h"
#include "workload/policy_gen.h"
#include "workload/seed.h"
#include "workload/topology_gen.h"
#include "workload/update_gen.h"

namespace sdx::oracle {
namespace {

using core::RuntimeOptions;

std::uint64_t MasterSeed() {
  if (const char* env = std::getenv("SDX_ORACLE_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0xfaceb00c5eed0001ull;
}

RuntimeOptions Mode(bool parallel, bool incremental) {
  RuntimeOptions options;
  options.compile.incremental = incremental;
  options.compile.threads = parallel ? 4 : 1;
  return options;
}

TEST(OracleFuzz, SequentialParallelIncrementalEquivalence) {
  const std::uint64_t master = MasterSeed();
  std::cout << "[ oracle ] master seed " << master
            << " (override with SDX_ORACLE_SEED)\n";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(55);

  struct Config {
    int participants;
    int prefixes;
    int burst_updates;
  };
  const Config configs[] = {
      {20, 300, 60}, {40, 600, 120}, {60, 900, 200}, {80, 1200, 300},
  };

  std::size_t generations_checked = 0;
  for (std::size_t c = 0; c < std::size(configs); ++c) {
    if (std::chrono::steady_clock::now() >= deadline) break;
    const Config& config = configs[c];
    const std::uint64_t config_seed = workload::DeriveSeed(master, c);
    SCOPED_TRACE(::testing::Message()
                 << "config " << config.participants << "p/"
                 << config.prefixes << "pfx seed " << config_seed);

    workload::TopologyParams topo;
    topo.participants = config.participants;
    topo.total_prefixes = config.prefixes;
    topo.seed = config_seed;
    const auto scenario = workload::TopologyGenerator(topo).Generate();
    workload::PolicyParams policy_params;
    policy_params.seed = workload::DeriveSeed(config_seed, 1);
    policy_params.coverage_fanout = config.participants / 2;
    const auto policies =
        workload::PolicyGenerator(policy_params).Generate(scenario);

    auto seq = BuildRuntime(scenario, policies, Mode(false, false));
    auto par = BuildRuntime(scenario, policies, Mode(true, false));
    auto inc = BuildRuntime(scenario, policies, Mode(true, true));

    auto update_params = workload::UpdateStreamParams::Small(
        config.prefixes, static_cast<std::uint64_t>(config.burst_updates) * 4,
        workload::DeriveSeed(config_seed, 2));
    update_params.duration_seconds = 1e12;
    const auto stream =
        workload::UpdateGenerator(update_params).GenerateFor(scenario);

    std::size_t next_update = 0;
    for (int generation = 0; generation < 4; ++generation) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      const std::uint64_t probe_seed =
          workload::DeriveSeed(config_seed, 100 + generation);
      SCOPED_TRACE(::testing::Message()
                   << "generation " << generation << " probe seed "
                   << probe_seed);

      // One burst of updates into every runtime (fast path), then a full
      // recompile of each — sequential from scratch, parallel from
      // scratch, incremental from its memoized state.
      for (int i = 0; i < config.burst_updates &&
                      next_update < stream.updates.size();
           ++i, ++next_update) {
        const auto& update = stream.updates[next_update];
        seq->ApplyUpdates({&update, 1});
        par->ApplyUpdates({&update, 1});
        inc->ApplyUpdates({&update, 1});
      }
      seq->FullCompile();
      par->FullCompile();
      const core::CompileStats stats = inc->FullCompile();
      EXPECT_TRUE(stats.incremental)
          << "incremental path unexpectedly fell back to full compile";

      const OracleResult seq_vs_par =
          ComparePacketBehavior(*seq, *par, scenario, probe_seed, 250);
      ASSERT_TRUE(seq_vs_par.equivalent)
          << "seq vs par:\n" << seq_vs_par.report;
      const OracleResult seq_vs_inc = ComparePacketBehavior(
          *seq, *inc, scenario, workload::DeriveSeed(probe_seed, 1), 250);
      ASSERT_TRUE(seq_vs_inc.equivalent)
          << "seq vs inc:\n" << seq_vs_inc.report;
      ++generations_checked;
    }
  }
  std::cout << "[ oracle ] " << generations_checked
            << " generations checked\n";
  EXPECT_GT(generations_checked, 0u);
}

}  // namespace
}  // namespace sdx::oracle
