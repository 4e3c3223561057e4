// Multi-switch deployment (§4.1): the fabric substrate and the star
// deployment must forward exactly like the single-switch data plane.
#include <gtest/gtest.h>

#include <random>

#include "sdx/multi_switch.h"
#include "sdx/runtime.h"
#include "workload/policy_gen.h"
#include "workload/topology_gen.h"

namespace sdx::core {
namespace {

using dataplane::MultiSwitchFabric;

net::IPv4Prefix Pfx(const char* text) {
  return *net::IPv4Prefix::Parse(text);
}

TEST(MultiSwitchFabric, SingleSwitchPassThrough) {
  MultiSwitchFabric fabric;
  auto& sw = fabric.AddSwitch(1);
  fabric.AssignEdgePort(10, 1);
  fabric.AssignEdgePort(11, 1);
  dataplane::FlowRule rule;
  rule.priority = 1;
  rule.actions = {dataplane::Action{{}, 11}};
  sw.table().Install(rule);

  net::Packet packet;
  packet.header.in_port = 10;
  auto out = fabric.ProcessFromEdge(packet);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].out_port, 11u);
}

TEST(MultiSwitchFabric, CrossesLinks) {
  MultiSwitchFabric fabric;
  auto& a = fabric.AddSwitch(1);
  auto& b = fabric.AddSwitch(2);
  fabric.Connect(1, 100, 2, 200);
  fabric.AssignEdgePort(10, 1);
  fabric.AssignEdgePort(20, 2);

  dataplane::FlowRule to_link;
  to_link.priority = 1;
  to_link.actions = {dataplane::Action{{}, 100}};
  a.table().Install(to_link);

  dataplane::FlowRule to_edge;
  to_edge.priority = 1;
  to_edge.match = net::FieldMatch::InPort(200);
  to_edge.actions = {dataplane::Action{{}, 20}};
  b.table().Install(to_edge);

  net::Packet packet;
  packet.header.in_port = 10;
  auto out = fabric.ProcessFromEdge(packet);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].out_port, 20u);
  EXPECT_TRUE(fabric.IsInternalPort(1, 100));
  EXPECT_FALSE(fabric.IsInternalPort(1, 10));
}

TEST(MultiSwitchFabric, HopLimitStopsLoops) {
  MultiSwitchFabric fabric;
  auto& a = fabric.AddSwitch(1);
  auto& b = fabric.AddSwitch(2);
  fabric.Connect(1, 100, 2, 200);
  fabric.AssignEdgePort(10, 1);

  // Both switches bounce everything back across the link: a loop.
  dataplane::FlowRule bounce_a;
  bounce_a.priority = 1;
  bounce_a.actions = {dataplane::Action{{}, 100}};
  a.table().Install(bounce_a);
  dataplane::FlowRule bounce_b;
  bounce_b.priority = 1;
  bounce_b.actions = {dataplane::Action{{}, 200}};
  b.table().Install(bounce_b);

  net::Packet packet;
  packet.header.in_port = 10;
  auto out = fabric.ProcessFromEdge(packet, /*max_hops=*/4);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fabric.hop_limit_drops(), 1u);
}

// Regression: a rule emitting on a port that is neither an internal link
// nor an edge port used to surface as an edge emission from thin air — a
// rule on switch A could "deliver" traffic to a port it does not host.
// Such emissions are isolation violations and must be dropped.
TEST(MultiSwitchFabric, EmissionOnUndeclaredPortIsDropped) {
  MultiSwitchFabric fabric;
  auto& sw = fabric.AddSwitch(1);
  fabric.AssignEdgePort(10, 1);
  dataplane::FlowRule rule;
  rule.priority = 1;
  rule.actions = {dataplane::Action{{}, 777}};  // 777 declared nowhere
  sw.table().Install(rule);

  net::Packet packet;
  packet.header.in_port = 10;
  packet.size_bytes = 500;
  EXPECT_TRUE(fabric.ProcessFromEdge(packet).empty());
  EXPECT_EQ(fabric.drops().count(obs::DropReason::kIsolationViolation), 1u);
  // The emitting switch's tx accounting was reversed: the packet never
  // actually left.
  EXPECT_EQ(sw.StatsFor(777).tx_packets, 0u);
  EXPECT_EQ(sw.StatsFor(777).tx_bytes, 0u);
}

// Regression: switch A emitting on an edge port that belongs to switch B
// used to be surfaced as a legitimate delivery — bypassing B's tables
// entirely. Edge emissions are only valid from the port's hosting switch.
TEST(MultiSwitchFabric, EmissionOnForeignEdgePortIsDropped) {
  MultiSwitchFabric fabric;
  auto& a = fabric.AddSwitch(1);
  fabric.AddSwitch(2);
  fabric.AssignEdgePort(10, 1);
  fabric.AssignEdgePort(20, 2);  // hosted by switch 2

  dataplane::FlowRule rule;
  rule.priority = 1;
  rule.actions = {dataplane::Action{{}, 20}};  // not ours to emit on
  a.table().Install(rule);

  net::Packet packet;
  packet.header.in_port = 10;
  EXPECT_TRUE(fabric.ProcessFromEdge(packet).empty());
  EXPECT_EQ(fabric.drops().count(obs::DropReason::kIsolationViolation), 1u);
  EXPECT_EQ(a.StatsFor(20).tx_packets, 0u);
}

// Regression: packets dropped at the hop limit had already incremented
// tx counters at every traversed link port, so tx stats reported traffic
// that never reached an edge. The final (dropped) emission's tx must be
// reversed — counters reflect actual emission fate.
TEST(MultiSwitchFabric, HopLimitDropReversesTxAccounting) {
  MultiSwitchFabric fabric;
  auto& a = fabric.AddSwitch(1);
  auto& b = fabric.AddSwitch(2);
  fabric.Connect(1, 100, 2, 200);
  fabric.AssignEdgePort(10, 1);

  dataplane::FlowRule bounce_a;
  bounce_a.priority = 1;
  bounce_a.actions = {dataplane::Action{{}, 100}};
  a.table().Install(bounce_a);
  dataplane::FlowRule bounce_b;
  bounce_b.priority = 1;
  bounce_b.actions = {dataplane::Action{{}, 200}};
  b.table().Install(bounce_b);

  net::Packet packet;
  packet.header.in_port = 10;
  packet.size_bytes = 100;
  // max_hops=4: emissions at 100, 200, 100, 200, then the 5th (on 100)
  // trips the limit and must be un-counted → 2 on each link port.
  EXPECT_TRUE(fabric.ProcessFromEdge(packet, /*max_hops=*/4).empty());
  EXPECT_EQ(fabric.hop_limit_drops(), 1u);
  EXPECT_EQ(a.StatsFor(100).tx_packets, 2u);
  EXPECT_EQ(b.StatsFor(200).tx_packets, 2u);
  EXPECT_EQ(a.StatsFor(100).tx_bytes, 200u);
}

TEST(MultiSwitchFabric, BatchMatchesSequentialProcessing) {
  auto build = [](MultiSwitchFabric& fabric) {
    auto& a = fabric.AddSwitch(1);
    auto& b = fabric.AddSwitch(2);
    fabric.Connect(1, 100, 2, 200);
    fabric.AssignEdgePort(10, 1);
    fabric.AssignEdgePort(20, 2);
    dataplane::FlowRule to_link;
    to_link.priority = 1;
    to_link.match = net::FieldMatch::DstPort(80);
    to_link.actions = {dataplane::Action{{}, 100}};
    a.table().Install(to_link);
    dataplane::FlowRule to_edge;
    to_edge.priority = 1;
    to_edge.match = net::FieldMatch::InPort(200);
    to_edge.actions = {dataplane::Action{{}, 20}};
    b.table().Install(to_edge);
  };
  MultiSwitchFabric sequential;
  MultiSwitchFabric batched;
  build(sequential);
  build(batched);

  std::vector<net::Packet> packets;
  for (int i = 0; i < 32; ++i) {
    net::Packet p;
    p.header.in_port = 10;
    p.header.dst_port = i % 3 == 0 ? 80 : 81;  // mix of delivered and missed
    p.header.src_port = static_cast<std::uint16_t>(i);
    p.size_bytes = 64;
    packets.push_back(p);
  }
  std::vector<dataplane::Emission> expected;
  for (const net::Packet& p : packets) {
    for (auto& e : sequential.ProcessFromEdge(p)) {
      expected.push_back(std::move(e));
    }
  }
  const auto got = batched.ProcessFromEdgeBatch(packets);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].out_port, expected[i].out_port);
    EXPECT_EQ(got[i].packet.header, expected[i].packet.header);
  }
  EXPECT_EQ(batched.AggregateDrops().total(),
            sequential.AggregateDrops().total());
  EXPECT_EQ(batched.FindSwitch(2)->StatsFor(20).tx_packets,
            sequential.FindSwitch(2)->StatsFor(20).tx_packets);
}

TEST(MultiSwitchFabric, UnknownEntryPortDrops) {
  MultiSwitchFabric fabric;
  fabric.AddSwitch(1);
  net::Packet packet;
  packet.header.in_port = 99;
  EXPECT_TRUE(fabric.ProcessFromEdge(packet).empty());
}

TEST(MultiSwitchFabric, InvalidConfigurationThrows) {
  MultiSwitchFabric fabric;
  fabric.AddSwitch(1);
  EXPECT_THROW(fabric.Connect(1, 5, 9, 6), std::invalid_argument);
  EXPECT_THROW(fabric.AssignEdgePort(10, 9), std::invalid_argument);
}

// FlowTable::rules() is in ascending precedence order, and InstallAll
// breaks priority ties by input order: every edge must keep the
// single-switch winner of an equal-priority overlap, not the loser.
TEST(MultiSwitchDeployment, EqualPriorityTieKeepsSingleSwitchWinner) {
  VirtualTopology topo;
  topo.AddParticipant(100, 1);
  topo.AddParticipant(200, 1);
  topo.AddParticipant(300, 1);
  const PhysicalPort& a = topo.PhysicalPortOf(100, 0);
  const PhysicalPort& b = topo.PhysicalPortOf(200, 0);
  const PhysicalPort& c = topo.PhysicalPortOf(300, 0);
  const auto to = [](const PhysicalPort& port) {
    dataplane::FlowRule rule;
    rule.priority = 10;
    rule.match = net::FieldMatch::DstPort(80);
    rule.actions = {dataplane::Action{
        dataplane::Rewrites().SetDstMac(port.mac), port.id}};
    return rule;
  };
  for (const PhysicalPort* first : {&b, &c}) {
    const PhysicalPort* second = first == &b ? &c : &b;
    dataplane::FlowTable single;
    single.Install(to(*first));   // installed first: wins the tie
    single.Install(to(*second));
    net::Packet packet;
    packet.header.in_port = a.id;
    packet.header.dst_port = 80;
    ASSERT_EQ(single.Lookup(packet.header)->actions[0].out_port, first->id);
    for (int edges = 1; edges <= 3; ++edges) {
      MultiSwitchDeployment deployment(topo, edges);
      deployment.Install(single.rules());
      const auto out = deployment.Process(packet);
      ASSERT_EQ(out.size(), 1u) << "edges=" << edges;
      EXPECT_EQ(out[0].out_port, first->id) << "edges=" << edges;
    }
  }
}

// Differential test: the star deployment forwards exactly like the
// single-switch SDX on the Figure 1 scenario plus a service chain.
class DeploymentDifferential : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    runtime_.AddParticipant(100, 1);
    runtime_.AddParticipant(200, 2);
    runtime_.AddParticipant(300, 1);
    runtime_.route_server().DenyExport(200, 100, Pfx("10.4.0.0/16"));
    for (int i = 1; i <= 4; ++i) {
      runtime_.AnnouncePrefix(
          200, net::IPv4Prefix(net::IPv4Address(10, i, 0, 0), 16),
          {200, 900});
      runtime_.AnnouncePrefix(
          300, net::IPv4Prefix(net::IPv4Address(10, i, 0, 0), 16),
          i == 3 ? std::vector<bgp::AsNumber>{300, 901, 902}
                 : std::vector<bgp::AsNumber>{300});
    }
    OutboundClause web;
    web.match = policy::Predicate::DstPort(80);
    web.to = 200;
    OutboundClause https;
    https.match = policy::Predicate::DstPort(443);
    https.to = 300;
    runtime_.SetOutboundPolicy(100, {web, https});
    InboundClause low;
    low.match = policy::Predicate::SrcIp(Pfx("0.0.0.0/1"));
    low.port_index = 0;
    InboundClause high;
    high.match = policy::Predicate::SrcIp(Pfx("128.0.0.0/1"));
    high.port_index = 1;
    runtime_.SetInboundPolicy(200, {low, high});
    runtime_.FullCompile();
  }

  SdxRuntime runtime_;
};

TEST_P(DeploymentDifferential, MatchesSingleSwitch) {
  const int edges = GetParam();
  MultiSwitchDeployment deployment(runtime_.topology(), edges);
  deployment.Install(runtime_.data_plane().table().rules());

  std::mt19937 rng(17);
  const bgp::AsNumber senders[] = {100, 200, 300};
  const std::uint16_t ports[] = {80, 443, 22};
  int delivered = 0;
  for (int trial = 0; trial < 500; ++trial) {
    net::Packet packet;
    packet.header.src_ip =
        net::IPv4Address(static_cast<std::uint32_t>(rng()));
    packet.header.dst_ip = net::IPv4Address(
        10, static_cast<uint8_t>(1 + rng() % 4),
        static_cast<uint8_t>(rng() % 255), 1);
    packet.header.proto = net::kProtoTcp;
    packet.header.dst_port = ports[rng() % 3];
    packet.size_bytes = 100;
    const bgp::AsNumber from = senders[rng() % 3];

    // Tag through the border router model, then run both data planes.
    const BorderRouter* router = runtime_.FindRouter(from);
    ASSERT_NE(router, nullptr);
    auto tagged = router->EmitPacket(packet, runtime_.arp());

    auto single = runtime_.InjectFromParticipant(from, packet);
    if (!tagged) {
      EXPECT_TRUE(single.empty());
      continue;
    }
    auto multi = deployment.Process(*tagged);

    ASSERT_EQ(single.size(), multi.size())
        << "sender AS" << from << " " << packet.header.ToString();
    if (single.empty()) continue;
    ++delivered;
    EXPECT_EQ(single[0].out_port, multi[0].out_port);
    EXPECT_EQ(single[0].packet.header, multi[0].packet.header);
  }
  EXPECT_GT(delivered, 200);
  EXPECT_EQ(deployment.fabric().hop_limit_drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Edges, DeploymentDifferential,
                         ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "edges" + std::to_string(info.param);
                         });

// And a larger randomized scenario across 3 edges.
TEST(DeploymentDifferentialLarge, RandomScenarioMatches) {
  workload::TopologyParams topo;
  topo.participants = 30;
  topo.total_prefixes = 300;
  topo.seed = 31;
  auto scenario = workload::TopologyGenerator(topo).Generate();
  workload::PolicyParams pp;
  pp.seed = 32;
  pp.coverage_fanout = 15;
  auto policies = workload::PolicyGenerator(pp).Generate(scenario);
  SdxRuntime runtime;
  workload::Install(runtime, scenario, policies);
  runtime.FullCompile();

  MultiSwitchDeployment deployment(runtime.topology(), 3);
  deployment.Install(runtime.data_plane().table().rules());

  std::mt19937 rng(33);
  int delivered = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto& member = scenario.members[rng() % scenario.members.size()];
    net::Packet packet;
    const auto& prefix = scenario.prefixes[rng() % scenario.prefixes.size()];
    packet.header.dst_ip =
        net::IPv4Address(prefix.network().value() | (rng() & 0xFF));
    packet.header.src_ip =
        net::IPv4Address(static_cast<std::uint32_t>(rng()));
    packet.header.proto = net::kProtoTcp;
    packet.header.dst_port = rng() % 2 ? 80 : 443;
    packet.size_bytes = 64;

    const BorderRouter* router = runtime.FindRouter(member.as);
    auto tagged = router->EmitPacket(packet, runtime.arp());
    auto single = runtime.InjectFromParticipant(member.as, packet);
    if (!tagged) {
      EXPECT_TRUE(single.empty());
      continue;
    }
    auto multi = deployment.Process(*tagged);
    ASSERT_EQ(single.size(), multi.size());
    if (single.empty()) continue;
    ++delivered;
    EXPECT_EQ(single[0].out_port, multi[0].out_port);
    EXPECT_EQ(single[0].packet.header, multi[0].packet.header);
  }
  EXPECT_GT(delivered, 200);
}

}  // namespace
}  // namespace sdx::core
