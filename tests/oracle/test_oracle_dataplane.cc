// Tier-1 dataplane-backend oracle: the compiled (tuple-space-search) flow
// table backend must be packet-for-packet identical to the linear reference
// scan — same emissions, same per-reason drops — on generated SDX rule sets
// under seeded fuzz traffic. This is the end-to-end counterpart of the
// table-level equivalence in test_classifier_backend; here the rules are
// the real compiler's output, not synthetic fuzz rules.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "dataplane/flow_table.h"
#include "oracle.h"
#include "workload/policy_gen.h"
#include "workload/seed.h"
#include "workload/topology_gen.h"
#include "workload/traffic_gen.h"

namespace sdx::oracle {
namespace {

using core::RuntimeOptions;
using core::SdxRuntime;
using dataplane::FlowTable;

constexpr std::uint64_t kSeed = 0xFA57'7AB1'E000'0001ull;

RuntimeOptions WithBackend(FlowTable::Backend backend) {
  RuntimeOptions options;
  options.backend = backend;
  return options;
}

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

TEST(DataplaneOracle, CompiledBackendMatchesLinear) {
  const Fixture fixture = MakeFixture(40, 600, kSeed);
  auto linear = BuildRuntime(fixture.scenario, fixture.policies,
                             WithBackend(FlowTable::Backend::kLinear));
  auto compiled = BuildRuntime(fixture.scenario, fixture.policies,
                               WithBackend(FlowTable::Backend::kCompiled));

  const OracleResult result = ComparePacketBehavior(
      *linear, *compiled, fixture.scenario, workload::DeriveSeed(kSeed, 2),
      800);
  EXPECT_TRUE(result.equivalent) << result.report;
  EXPECT_EQ(result.packets_checked, 800u);
  // The real rule set must exercise a multi-tuple compile, or this oracle
  // proves nothing about the interesting path.
  EXPECT_GT(compiled->data_plane().table().CompiledTupleCount(), 1u);
}

TEST(DataplaneOracle, CompiledBackendMatchesLinearAfterRecompile) {
  // Policy edit + FullCompile swaps the installed generation (bulk
  // mutation → full classifier rebuild); the backends must still agree.
  const Fixture fixture = MakeFixture(40, 600, kSeed + 1);
  auto linear = BuildRuntime(fixture.scenario, fixture.policies,
                             WithBackend(FlowTable::Backend::kLinear));
  auto compiled = BuildRuntime(fixture.scenario, fixture.policies,
                               WithBackend(FlowTable::Backend::kCompiled));

  for (const auto& [as, clauses] : fixture.policies.outbound) {
    if (clauses.empty()) continue;
    auto edited = clauses;
    edited.front().match = policy::Predicate::SrcIp(
        net::IPv4Prefix(net::IPv4Address(0x80000000u), 1));
    linear->SetOutboundPolicy(as, edited);
    compiled->SetOutboundPolicy(as, edited);
    break;
  }
  linear->FullCompile();
  compiled->FullCompile();

  const OracleResult result = ComparePacketBehavior(
      *linear, *compiled, fixture.scenario, workload::DeriveSeed(kSeed, 3),
      500);
  EXPECT_TRUE(result.equivalent) << result.report;
}

TEST(DataplaneOracle, BatchInjectionMatchesPerPacket) {
  // InjectFromParticipantBatch must be observably identical to injecting
  // the same packets one at a time: same emissions in order, same drops.
  const Fixture fixture = MakeFixture(30, 400, kSeed + 2);
  auto one_by_one =
      BuildRuntime(fixture.scenario, fixture.policies, RuntimeOptions());
  auto batched =
      BuildRuntime(fixture.scenario, fixture.policies, RuntimeOptions());

  // Sample a block of traffic and group it into per-sender bursts (a
  // batch injection is per sending AS, like a border router's tx ring).
  workload::PacketSampler sampler(fixture.scenario,
                                  workload::DeriveSeed(kSeed, 4));
  std::map<bgp::AsNumber, std::vector<net::Packet>> bursts;
  for (int i = 0; i < 512; ++i) {
    const auto sample = sampler.Next();
    bursts[sample.from].push_back({sample.header, 100});
  }

  std::size_t checked = 0;
  for (const auto& [from, burst] : bursts) {
    std::vector<dataplane::Emission> expected;
    for (const net::Packet& packet : burst) {
      for (auto& e : one_by_one->InjectFromParticipant(from, packet)) {
        expected.push_back(std::move(e));
      }
    }
    const auto got = batched->InjectFromParticipantBatch(from, burst);
    ASSERT_EQ(got.size(), expected.size()) << "sender AS" << from;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].out_port, expected[i].out_port);
      EXPECT_EQ(got[i].packet.header, expected[i].packet.header);
    }
    checked += burst.size();
  }
  EXPECT_EQ(checked, 512u);
  for (const obs::DropReason reason : obs::kAllDropReasons) {
    EXPECT_EQ(batched->DropCounts().count(reason),
              one_by_one->DropCounts().count(reason))
        << obs::DropReasonName(reason);
  }
}

}  // namespace
}  // namespace sdx::oracle
