// Tier-1 batched-ingest oracle gate: ApplyUpdates (coalescing batch
// pipeline, DESIGN.md §9) must be packet-for-packet identical to a
// sequential replay of the same update stream, one batch of one per
// update. Seeded
// fig9-style flap bursts and fig10-style generated streams; a failing
// oracle prints the sampler seed to replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "oracle.h"
#include "workload/policy_gen.h"
#include "workload/seed.h"
#include "workload/topology_gen.h"
#include "workload/update_gen.h"

namespace sdx::oracle {
namespace {

using core::RuntimeOptions;
using core::SdxRuntime;

constexpr std::uint64_t kSeed = 0xba7c4ed0c0a1e5ceull;

struct Fixture {
  workload::IxpScenario scenario;
  workload::GeneratedPolicies policies;
};

Fixture MakeFixture(int participants, int prefixes, std::uint64_t seed) {
  Fixture fixture;
  workload::TopologyParams topo;
  topo.participants = participants;
  topo.total_prefixes = prefixes;
  topo.seed = seed;
  fixture.scenario = workload::TopologyGenerator(topo).Generate();
  workload::PolicyParams policy_params;
  policy_params.seed = workload::DeriveSeed(seed, 1);
  policy_params.coverage_fanout = participants / 2;
  fixture.policies =
      workload::PolicyGenerator(policy_params).Generate(fixture.scenario);
  return fixture;
}

// A fig9/fig10-style flap burst: `prefixes` distinct (peer, prefix) keys,
// each re-announced `rounds` times with escalating local-pref, interleaved
// round-robin so coalescing has to work across keys, not just runs of the
// same key. Every announcement changes the best path, so the sequential
// replay pays one fast-path compile per update while the batch pays one
// per surviving key.
std::vector<bgp::BgpUpdate> MakeFlapBurst(const SdxRuntime& runtime,
                                          const workload::IxpScenario& scenario,
                                          std::size_t prefixes,
                                          std::size_t rounds,
                                          std::uint32_t base_pref) {
  struct Key {
    bgp::AsNumber as;
    net::IPv4Prefix prefix;
  };
  std::vector<Key> keys;
  for (const auto& member : scenario.members) {
    for (const auto& prefix : member.announced) {
      keys.push_back({member.as, prefix});
      if (keys.size() == prefixes) break;
    }
    if (keys.size() == prefixes) break;
  }
  std::vector<bgp::BgpUpdate> burst;
  burst.reserve(keys.size() * rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const Key& key : keys) {
      bgp::Announcement a;
      a.from_as = key.as;
      a.route.prefix = key.prefix;
      a.route.as_path = {key.as};
      a.route.local_pref = base_pref + static_cast<std::uint32_t>(round);
      a.route.next_hop = runtime.RouterIp(key.as);
      burst.push_back(bgp::BgpUpdate{a});
    }
  }
  return burst;
}

TEST(OracleBatch, BatchedFlapBurstMatchesSequentialReplay) {
  const Fixture fixture = MakeFixture(40, 600, kSeed);
  const RuntimeOptions options;  // the defaults both entry points share
  auto seq = BuildRuntime(fixture.scenario, fixture.policies, options);
  auto bat = BuildRuntime(fixture.scenario, fixture.policies, options);

  const auto burst =
      MakeFlapBurst(*seq, fixture.scenario, /*prefixes=*/8, /*rounds=*/8,
                    /*base_pref=*/500);
  ASSERT_EQ(burst.size(), 64u);

  for (const auto& update : burst) seq->ApplyUpdates({&update, 1});
  const core::BatchStats stats = bat->ApplyUpdates(burst);
  // 8 rounds per key coalesce to one survivor each.
  EXPECT_EQ(stats.updates_applied, 8u);
  EXPECT_EQ(stats.updates_coalesced, 56u);
  EXPECT_TRUE(stats.compiled);

  const OracleResult result = ComparePacketBehavior(
      *seq, *bat, fixture.scenario, workload::DeriveSeed(kSeed, 2), 500);
  EXPECT_TRUE(result.equivalent) << result.report;
  EXPECT_EQ(result.packets_checked, 500u);
}

TEST(OracleBatch, BatchedGeneratedStreamMatchesSequentialReplay) {
  const Fixture fixture = MakeFixture(40, 600, kSeed + 1);
  const RuntimeOptions options;
  auto seq = BuildRuntime(fixture.scenario, fixture.policies, options);
  auto bat = BuildRuntime(fixture.scenario, fixture.policies, options);

  // A fig10-style mixed announce/withdraw stream, chunked into batches of
  // 16 on the batched side.
  auto params = workload::UpdateStreamParams::Small(600, 192, kSeed + 2);
  params.duration_seconds = 1e12;
  const auto stream =
      workload::UpdateGenerator(params).GenerateFor(fixture.scenario);
  ASSERT_FALSE(stream.updates.empty());

  for (const auto& update : stream.updates) seq->ApplyUpdates({&update, 1});
  constexpr std::size_t kChunk = 16;
  for (std::size_t base = 0; base < stream.updates.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, stream.updates.size() - base);
    bat->ApplyUpdates(
        std::span<const bgp::BgpUpdate>(stream.updates.data() + base, n));
  }

  const OracleResult result = ComparePacketBehavior(
      *seq, *bat, fixture.scenario, workload::DeriveSeed(kSeed, 3), 500);
  EXPECT_TRUE(result.equivalent) << result.report;
}

// The queue entry point (EnqueueUpdate + batch window auto-flush) is the
// same pipeline: window-4 ingestion of a flap burst must match the
// sequential replay packet-for-packet too.
TEST(OracleBatch, BatchWindowIngestMatchesSequentialReplay) {
  const Fixture fixture = MakeFixture(30, 400, kSeed + 4);
  const RuntimeOptions options;
  auto seq = BuildRuntime(fixture.scenario, fixture.policies, options);
  auto bat = BuildRuntime(fixture.scenario, fixture.policies, options);

  const auto burst =
      MakeFlapBurst(*seq, fixture.scenario, /*prefixes=*/6, /*rounds=*/4,
                    /*base_pref=*/400);
  for (const auto& update : burst) seq->ApplyUpdates({&update, 1});

  RuntimeOptions window = bat->runtime_options();
  window.batch_window = 4;
  bat->Configure(window);
  for (const auto& update : burst) bat->EnqueueUpdate(update);
  bat->Flush();  // remainder, if the burst size is not a multiple of 4
  EXPECT_EQ(bat->pending_updates(), 0u);

  const OracleResult result = ComparePacketBehavior(
      *seq, *bat, fixture.scenario, workload::DeriveSeed(kSeed, 5), 400);
  EXPECT_TRUE(result.equivalent) << result.report;
}

}  // namespace
}  // namespace sdx::oracle
