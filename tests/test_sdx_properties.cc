// System-level property tests over randomized scenarios (the DESIGN.md
// invariants):
//
//   * Fast-path correctness (invariant 7): after any sequence of BGP
//     updates applied through the §4.3.2 fast path, the fabric forwards
//     exactly like a from-scratch full compilation of the same state.
//   * Isolation (invariant 1): one participant's outbound policy never
//     affects another sender's traffic.
//   * BGP consistency (invariant 2): traffic for a prefix only ever exits
//     toward a participant that exported a usable route for it.
//   * No loops / single delivery (invariant 3): every injected packet
//     yields at most one emission, always at a physical port.
#include <gtest/gtest.h>

#include <random>

#include "sdx/runtime.h"
#include "workload/policy_gen.h"
#include "workload/topology_gen.h"
#include "workload/update_gen.h"

namespace sdx::core {
namespace {

struct StormParams {
  std::uint32_t seed;
  int participants;
  int prefixes;
  int updates;
};

class FastPathStorm : public ::testing::TestWithParam<StormParams> {};

net::Packet RandomPacket(std::mt19937& rng,
                         const workload::IxpScenario& scenario) {
  net::Packet packet;
  const auto& prefix =
      scenario.prefixes[rng() % scenario.prefixes.size()];
  packet.header.dst_ip =
      net::IPv4Address(prefix.network().value() | (rng() & 0xFF));
  packet.header.src_ip = net::IPv4Address(static_cast<std::uint32_t>(rng()));
  packet.header.proto = net::kProtoTcp;
  packet.header.src_port = static_cast<std::uint16_t>(rng());
  const std::uint16_t ports[] = {80, 443, 8080, 1935, 22, 1234};
  packet.header.dst_port = ports[rng() % 6];
  packet.size_bytes = 64;
  return packet;
}

TEST_P(FastPathStorm, FastPathMatchesFullRecompile) {
  const StormParams params = GetParam();
  workload::TopologyParams topo;
  topo.participants = params.participants;
  topo.total_prefixes = params.prefixes;
  topo.seed = params.seed;
  auto scenario = workload::TopologyGenerator(topo).Generate();
  workload::PolicyParams policy_params;
  policy_params.seed = params.seed + 1;
  policy_params.coverage_fanout = params.participants / 2;
  auto policies = workload::PolicyGenerator(policy_params).Generate(scenario);

  SdxRuntime fast;
  workload::Install(fast, scenario, policies);
  fast.FullCompile();

  // Apply an update storm through the fast path only.
  auto update_params = workload::UpdateStreamParams::Small(
      params.prefixes, static_cast<std::uint64_t>(params.updates),
      params.seed + 2);
  update_params.duration_seconds = 1e12;
  auto stream =
      workload::UpdateGenerator(update_params).GenerateFor(scenario);
  for (const auto& update : stream.updates) {
    fast.ApplyUpdates({&update, 1});
  }

  // Reference: a second runtime fed the same history, then fully compiled.
  SdxRuntime reference;
  workload::Install(reference, scenario, policies);
  for (const auto& update : stream.updates) {
    reference.route_server().HandleUpdate(update);
  }
  reference.FullCompile();

  std::mt19937 rng(params.seed + 3);
  std::vector<bgp::AsNumber> senders;
  for (const auto& member : scenario.members) senders.push_back(member.as);

  int delivered = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bgp::AsNumber from = senders[rng() % senders.size()];
    net::Packet packet = RandomPacket(rng, scenario);

    auto fast_out = fast.InjectFromParticipant(from, packet);
    auto ref_out = reference.InjectFromParticipant(from, packet);

    ASSERT_EQ(fast_out.size(), ref_out.size())
        << "sender AS" << from << " " << packet.header.ToString();
    if (fast_out.empty()) continue;
    ++delivered;
    ASSERT_EQ(fast_out.size(), 1u);
    EXPECT_EQ(fast_out[0].out_port, ref_out[0].out_port)
        << "sender AS" << from << " " << packet.header.ToString();
    EXPECT_EQ(fast_out[0].packet.header.dst_ip,
              ref_out[0].packet.header.dst_ip);
    EXPECT_EQ(fast_out[0].packet.header.dst_port,
              ref_out[0].packet.header.dst_port);
  }
  EXPECT_GT(delivered, 100);  // the comparison must exercise real traffic
}

INSTANTIATE_TEST_SUITE_P(
    Storms, FastPathStorm,
    ::testing::Values(StormParams{11, 10, 100, 40},
                      StormParams{12, 20, 200, 80},
                      StormParams{13, 30, 400, 120},
                      StormParams{14, 40, 400, 200}),
    [](const ::testing::TestParamInfo<StormParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.participants);
    });

class ScenarioInvariants : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::TopologyParams topo;
    topo.participants = 25;
    topo.total_prefixes = 300;
    topo.seed = 77;
    scenario_ = workload::TopologyGenerator(topo).Generate();
    workload::PolicyParams pp;
    pp.seed = 78;
    pp.coverage_fanout = 10;
    policies_ = workload::PolicyGenerator(pp).Generate(scenario_);
    workload::Install(runtime_, scenario_, policies_);
    runtime_.FullCompile();
  }

  workload::IxpScenario scenario_;
  workload::GeneratedPolicies policies_;
  SdxRuntime runtime_;
};

TEST_F(ScenarioInvariants, EveryEmissionExitsAtAPhysicalPort) {
  std::mt19937 rng(1);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto& member = scenario_.members[rng() % scenario_.members.size()];
    auto emissions =
        runtime_.InjectFromParticipant(member.as, RandomPacket(rng, scenario_));
    ASSERT_LE(emissions.size(), 1u);  // unicast policies only
    for (const auto& emission : emissions) {
      EXPECT_TRUE(runtime_.topology().IsPhysical(emission.out_port));
    }
  }
}

TEST_F(ScenarioInvariants, BgpConsistency) {
  // Every delivered packet exits at a participant that exported a usable
  // route for the packet's destination prefix to the sender — or hosts a
  // middlebox/replica named by an inbound clause (via_participant).
  std::mt19937 rng(2);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto& member = scenario_.members[rng() % scenario_.members.size()];
    net::Packet packet = RandomPacket(rng, scenario_);
    auto emissions = runtime_.InjectFromParticipant(member.as, packet);
    for (const auto& emission : emissions) {
      const auto* port = runtime_.topology().FindPhysicalPort(
          emission.out_port);
      ASSERT_NE(port, nullptr);
      // Destination prefix of the original packet.
      std::optional<net::IPv4Prefix> prefix;
      for (const auto& p : scenario_.prefixes) {
        if (p.Contains(packet.header.dst_ip)) {
          prefix = p;
          break;
        }
      }
      ASSERT_TRUE(prefix);
      EXPECT_TRUE(
          runtime_.route_server().ExportsTo(port->owner, member.as, *prefix))
          << "AS" << member.as << " -> AS" << port->owner << " for "
          << *prefix;
    }
  }
}

TEST_F(ScenarioInvariants, IsolationUnderPolicyRemoval) {
  // Removing one participant's outbound policy must not change any OTHER
  // sender's forwarding.
  bgp::AsNumber policy_holder = 0;
  for (const auto& [as, clauses] : policies_.outbound) {
    if (!clauses.empty()) {
      policy_holder = as;
      break;
    }
  }
  ASSERT_NE(policy_holder, 0u);

  std::mt19937 rng(3);
  struct Probe {
    bgp::AsNumber from;
    net::Packet packet;
    std::vector<dataplane::Emission> before;
  };
  std::vector<Probe> probes;
  for (int trial = 0; trial < 300; ++trial) {
    const auto& member = scenario_.members[rng() % scenario_.members.size()];
    if (member.as == policy_holder) continue;
    Probe probe;
    probe.from = member.as;
    probe.packet = RandomPacket(rng, scenario_);
    probe.before = runtime_.InjectFromParticipant(probe.from, probe.packet);
    probes.push_back(std::move(probe));
  }

  runtime_.SetOutboundPolicy(policy_holder, {});
  runtime_.FullCompile();

  for (const Probe& probe : probes) {
    auto after = runtime_.InjectFromParticipant(probe.from, probe.packet);
    ASSERT_EQ(after.size(), probe.before.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].out_port, probe.before[i].out_port)
          << "AS" << probe.from << " " << probe.packet.header.ToString();
    }
  }
}

TEST_F(ScenarioInvariants, DefaultEquivalenceWithoutPolicies) {
  // With every policy removed, forwarding equals pure BGP best-route
  // forwarding (invariant 4).
  for (const auto& member : scenario_.members) {
    runtime_.SetOutboundPolicy(member.as, {});
    runtime_.SetInboundPolicy(member.as, {});
  }
  runtime_.FullCompile();

  std::mt19937 rng(4);
  int delivered = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const auto& member = scenario_.members[rng() % scenario_.members.size()];
    net::Packet packet = RandomPacket(rng, scenario_);
    auto emissions = runtime_.InjectFromParticipant(member.as, packet);

    auto best = [&]() -> const bgp::BgpRoute* {
      for (const auto& p : scenario_.prefixes) {
        if (p.Contains(packet.header.dst_ip)) {
          return runtime_.route_server().BestRoute(member.as, p);
        }
      }
      return nullptr;
    }();

    if (best == nullptr) {
      EXPECT_TRUE(emissions.empty());
      continue;
    }
    ASSERT_EQ(emissions.size(), 1u);
    ++delivered;
    const auto* port =
        runtime_.topology().FindPhysicalPort(emissions[0].out_port);
    ASSERT_NE(port, nullptr);
    EXPECT_EQ(port->owner, best->peer_as);
    EXPECT_EQ(port->index, 0);  // default delivery is port 0
  }
  EXPECT_GT(delivered, 300);
}

}  // namespace
}  // namespace sdx::core
