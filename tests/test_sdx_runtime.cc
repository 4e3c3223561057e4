// End-to-end tests of the SDX runtime on the paper's running example
// (Figure 1): application-specific peering + inbound traffic engineering,
// BGP-consistency, default forwarding, fast-path updates.
#include <gtest/gtest.h>

#include "sdx/runtime.h"

namespace sdx::core {
namespace {

using policy::Predicate;

net::IPv4Prefix Pfx(const char* text) {
  return *net::IPv4Prefix::Parse(text);
}

constexpr AsNumber kA = 100;
constexpr AsNumber kB = 200;
constexpr AsNumber kC = 300;

// Figure 1 fixture:
//   * A (1 port) peers with B (2 ports) and C (1 port).
//   * B announces p1..p4 but does NOT export p4 to A; C announces p1..p5.
//   * C's paths for p1, p2, p4, p5 are best (shorter); B's for p3 is best.
//   * A: web -> B, https -> C. B: srcip-low -> B1, srcip-high -> B2.
class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_.AddParticipant(kA, 1);
    runtime_.AddParticipant(kB, 2);
    runtime_.AddParticipant(kC, 1);

    runtime_.route_server().DenyExport(kB, kA, P(4));

    for (int i = 1; i <= 4; ++i) runtime_.AnnouncePrefix(kB, P(i), {kB, 900});
    for (int i = 1; i <= 4; ++i) runtime_.AnnouncePrefix(kC, P(i), Best(i));
    // p5 is A's own prefix: nothing overrides it anywhere ("prefixes that
    // retain their default behavior, such as p5").
    runtime_.AnnouncePrefix(kA, P(5));

    OutboundClause web;
    web.match = Predicate::DstPort(80);
    web.to = kB;
    OutboundClause https;
    https.match = Predicate::DstPort(443);
    https.to = kC;
    runtime_.SetOutboundPolicy(kA, {web, https});

    InboundClause low;
    low.match = Predicate::SrcIp(Pfx("0.0.0.0/1"));
    low.port_index = 0;
    InboundClause high;
    high.match = Predicate::SrcIp(Pfx("128.0.0.0/1"));
    high.port_index = 1;
    runtime_.SetInboundPolicy(kB, {low, high});

    runtime_.FullCompile();
  }

  // p1..p5 = 10.<i>.0.0/16.
  static net::IPv4Prefix P(int i) {
    return net::IPv4Prefix(net::IPv4Address(10, static_cast<uint8_t>(i), 0, 0),
                           16);
  }

  // C's AS path: short (best) except for p3 where B wins.
  std::vector<bgp::AsNumber> Best(int i) {
    if (i == 3) return {kC, 901, 902};
    return {kC};
  }

  net::Packet PacketTo(int prefix_index, std::uint16_t dst_port,
                       net::IPv4Address src = net::IPv4Address(10, 99, 0, 1)) {
    net::Packet p;
    p.header.src_ip = src;
    p.header.dst_ip =
        net::IPv4Address(10, static_cast<uint8_t>(prefix_index), 1, 1);
    p.header.proto = net::kProtoTcp;
    p.header.dst_port = dst_port;
    p.size_bytes = 1000;
    return p;
  }

  net::PortId PortOf(AsNumber as, int index) {
    return runtime_.topology().PhysicalPortOf(as, index).id;
  }

  // One update through the fast path, as a batch of one.
  BatchStats Apply(const bgp::BgpUpdate& update) {
    return runtime_.ApplyUpdates({&update, 1});
  }

  SdxRuntime runtime_;
};

TEST_F(Figure1Test, GroupsMatchPaperExample) {
  // §4.2 derives C' = {{p1,p2},{p3},{p4}} for this setup.
  EXPECT_EQ(runtime_.groups().groups.size(), 3u);
  const auto* g1 = runtime_.groups().FindByPrefix(P(1));
  const auto* g2 = runtime_.groups().FindByPrefix(P(2));
  const auto* g3 = runtime_.groups().FindByPrefix(P(3));
  const auto* g4 = runtime_.groups().FindByPrefix(P(4));
  ASSERT_TRUE(g1 && g2 && g3 && g4);
  EXPECT_EQ(g1->id, g2->id);
  EXPECT_NE(g1->id, g3->id);
  EXPECT_NE(g1->id, g4->id);
  EXPECT_NE(g3->id, g4->id);
  // p5 retains pure default behavior: no group.
  EXPECT_EQ(runtime_.groups().FindByPrefix(P(5)), nullptr);
  // Default next hops: C is best for p1/p2/p4, B for p3.
  EXPECT_EQ(g1->best_hop, kC);
  EXPECT_EQ(g3->best_hop, kB);
  EXPECT_EQ(g4->best_hop, kC);
}

TEST_F(Figure1Test, WebTrafficDivertedToB) {
  // Web traffic to p1 (whose best route is via C!) goes through B, and B's
  // inbound TE picks the port by source address.
  auto emissions = runtime_.InjectFromParticipant(
      kA, PacketTo(1, 80, net::IPv4Address(10, 99, 0, 1)));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));
  // Delivered with B0's real MAC (the paper's dst-MAC rewrite on delivery).
  EXPECT_EQ(emissions[0].packet.header.dst_mac,
            runtime_.topology().PhysicalPortOf(kB, 0).mac);

  emissions = runtime_.InjectFromParticipant(
      kA, PacketTo(1, 80, net::IPv4Address(200, 1, 2, 3)));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 1));
}

TEST_F(Figure1Test, HttpsTrafficDivertedToC) {
  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(3, 443));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kC, 0));
}

TEST_F(Figure1Test, NonMatchingTrafficFollowsBgpDefault) {
  // SSH to p1: best route via C.
  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(1, 22));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kC, 0));

  // SSH to p3: best route via B; B's inbound TE still applies.
  emissions = runtime_.InjectFromParticipant(kA, PacketTo(3, 22));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));
}

TEST_F(Figure1Test, BgpConsistencyBlocksIneligibleDiversion) {
  // B did not export p4 to A, so A's web policy cannot divert p4 via B:
  // the traffic follows the default route via C instead.
  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(4, 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kC, 0));
}

TEST_F(Figure1Test, UntouchedPrefixUsesPlainL2Path) {
  // p5 (announced by A, no SDX policy anywhere): C's router tags it with
  // A's real port MAC (no VNH), and the fabric forwards it like a normal
  // IXP.
  const auto* router = runtime_.FindRouter(kC);
  ASSERT_NE(router, nullptr);
  auto next_hop = router->NextHopFor(net::IPv4Address(10, 5, 1, 1));
  ASSERT_TRUE(next_hop);
  EXPECT_EQ(*next_hop, runtime_.RouterIp(kA));  // real next hop, not a VNH

  auto emissions = runtime_.InjectFromParticipant(kC, PacketTo(5, 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kA, 0));
  EXPECT_EQ(emissions[0].packet.header.dst_mac,
            runtime_.topology().PhysicalPortOf(kA, 0).mac);
}

TEST_F(Figure1Test, ExportDeniedMoreSpecificFollowsCoveringPrefix) {
  // C announces a /24 inside p1 but does not export it to A: A's border
  // router has no route for the /24, so its packets follow p1's /16 (web
  // to B, the rest to C) instead of being dropped or sent on the /24.
  const net::IPv4Prefix more_specific = Pfx("10.1.7.0/24");
  runtime_.route_server().DenyExport(kC, kA, more_specific);
  runtime_.AnnouncePrefix(kC, more_specific);
  runtime_.FullCompile();
  const net::IPv4Address inside(10, 1, 7, 9);

  EXPECT_FALSE(runtime_.AdvertisedNextHop(kA, more_specific));
  const auto* a = runtime_.FindRouter(kA);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->NextHopFor(inside), runtime_.AdvertisedNextHop(kA, P(1)));
  // B holds the /24 itself, via C's real address.
  EXPECT_EQ(runtime_.FindRouter(kB)->NextHopFor(inside),
            runtime_.RouterIp(kC));

  net::Packet web = PacketTo(1, 80, net::IPv4Address(10, 99, 0, 1));
  web.header.dst_ip = inside;
  auto emissions = runtime_.InjectFromParticipant(kA, web);
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));
  net::Packet ssh = PacketTo(1, 22);
  ssh.header.dst_ip = inside;
  emissions = runtime_.InjectFromParticipant(kA, ssh);
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kC, 0));
}

TEST_F(Figure1Test, OverriddenPrefixUsesVnh) {
  const auto* router = runtime_.FindRouter(kA);
  ASSERT_NE(router, nullptr);
  auto next_hop = router->NextHopFor(net::IPv4Address(10, 1, 1, 1));
  ASSERT_TRUE(next_hop);
  EXPECT_TRUE(net::IPv4Prefix(net::IPv4Address(172, 16, 0, 0), 12)
                  .Contains(*next_hop));
}

TEST_F(Figure1Test, IsolationOtherSendersNotDiverted) {
  // C sends web traffic to p3 (best via B): A's web policy must not apply
  // to C's traffic — it follows C's default (via B) and B's inbound TE.
  auto emissions = runtime_.InjectFromParticipant(kC, PacketTo(3, 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));

  // And C's traffic to p1 (C's own announcement is excluded; B's route is
  // the only candidate) flows to B, not to A's policy targets.
  emissions = runtime_.InjectFromParticipant(kC, PacketTo(1, 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));
}

TEST_F(Figure1Test, AnnouncerTrafficNeverReflected) {
  // A has no route for its own prefix p5 (it is the only announcer and the
  // route server never reflects a route back): its router drops.
  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(5, 80));
  EXPECT_TRUE(emissions.empty());
}

TEST_F(Figure1Test, WithdrawalShiftsTrafficViaFastPath) {
  // Withdraw C's route for p1: the best route shifts to B; default (non-web)
  // traffic to p1 must now exit via B. This is the Figure 5a route
  // withdrawal event, handled by the §4.3.2 fast path.
  bgp::Withdrawal withdrawal;
  withdrawal.from_as = kC;
  withdrawal.prefix = P(1);
  const BatchStats stats = Apply(bgp::BgpUpdate{withdrawal});
  EXPECT_EQ(stats.prefixes_changed, 1u);
  EXPECT_GT(stats.rules_added, 0u);
  EXPECT_EQ(runtime_.fast_path_groups(), 1u);

  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(1, 22));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));

  // Web traffic still honors A's policy (now also via B).
  emissions = runtime_.InjectFromParticipant(kA, PacketTo(1, 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));
}

TEST_F(Figure1Test, BackgroundOptimizationRetiresFastPathRules) {
  bgp::Withdrawal withdrawal;
  withdrawal.from_as = kC;
  withdrawal.prefix = P(1);
  Apply(bgp::BgpUpdate{withdrawal});
  auto fast_rules = [this] {
    std::size_t count = 0;
    for (const auto& rule : runtime_.data_plane().table().rules()) {
      if (rule.cookie == 1) ++count;  // the fast-path cookie
    }
    return count;
  };
  EXPECT_GT(fast_rules(), 0u);

  auto stats = runtime_.FullCompile();
  EXPECT_EQ(runtime_.fast_path_groups(), 0u);
  EXPECT_EQ(fast_rules(), 0u);  // fast-path rules retired
  EXPECT_GT(stats.prefix_group_count, 0u);

  // Behavior unchanged after re-optimization.
  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(1, 22));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));
}

TEST_F(Figure1Test, AnnouncementFastPathRestoresRoute) {
  bgp::Withdrawal withdrawal;
  withdrawal.from_as = kC;
  withdrawal.prefix = P(1);
  Apply(bgp::BgpUpdate{withdrawal});

  // C re-announces p1 with the old (best) path: traffic shifts back via C.
  bgp::Announcement announcement;
  announcement.from_as = kC;
  announcement.route.prefix = P(1);
  announcement.route.as_path = {kC};
  announcement.route.next_hop = runtime_.RouterIp(kC);
  const BatchStats stats = Apply(bgp::BgpUpdate{announcement});
  EXPECT_EQ(stats.prefixes_changed, 1u);

  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(1, 22));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kC, 0));
}

TEST_F(Figure1Test, DuplicateUpdateDoesNotRecompile) {
  bgp::Announcement announcement;
  announcement.from_as = kC;
  announcement.route.prefix = P(1);
  announcement.route.as_path = {kC};
  announcement.route.next_hop = runtime_.RouterIp(kC);
  const BatchStats stats = Apply(bgp::BgpUpdate{announcement});
  EXPECT_EQ(stats.prefixes_changed, 0u);
  EXPECT_FALSE(stats.compiled);
  EXPECT_EQ(stats.rules_added, 0u);
}

TEST_F(Figure1Test, FastPathSliceUsesGenerationInboundBlocks) {
  // B swaps its inbound ports after the compile. Until the next
  // FullCompile, fast-path slices compose against the inbound blocks of
  // the installed generation; the edit takes effect at the next compile.
  InboundClause low;
  low.match = Predicate::SrcIp(Pfx("0.0.0.0/1"));
  low.port_index = 1;
  InboundClause high;
  high.match = Predicate::SrcIp(Pfx("128.0.0.0/1"));
  high.port_index = 0;
  runtime_.SetInboundPolicy(kB, {low, high});

  // Withdrawing C's p1 moves its best route to B through the fast path.
  bgp::Withdrawal withdrawal;
  withdrawal.from_as = kC;
  withdrawal.prefix = P(1);
  const BatchStats stats = Apply(bgp::BgpUpdate{withdrawal});
  ASSERT_TRUE(stats.compiled);
  ASSERT_EQ(runtime_.fast_path_groups(), 1u);

  const net::IPv4Address low_src(10, 99, 0, 1);
  const net::IPv4Address high_src(200, 0, 0, 1);
  auto out_port = [&](net::IPv4Address src) {
    const auto emissions =
        runtime_.InjectFromParticipant(kA, PacketTo(1, 22, src));
    EXPECT_EQ(emissions.size(), 1u);
    return emissions.empty() ? net::kNoPort : emissions[0].out_port;
  };
  EXPECT_EQ(out_port(low_src), PortOf(kB, 0));  // the old inbound policy
  EXPECT_EQ(out_port(high_src), PortOf(kB, 1));

  runtime_.FullCompile();
  EXPECT_EQ(out_port(low_src), PortOf(kB, 1));  // the new one
  EXPECT_EQ(out_port(high_src), PortOf(kB, 0));
}

TEST_F(Figure1Test, CompileStatsAreConsistent) {
  auto stats = runtime_.FullCompile();
  EXPECT_EQ(stats.prefix_group_count, 3u);
  EXPECT_EQ(stats.flow_rule_count, runtime_.data_plane().table().size());
  EXPECT_GT(stats.override_rule_count, 0u);
  EXPECT_GT(stats.default_rule_count, 0u);
  EXPECT_GT(stats.vnh_count, 0u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST_F(Figure1Test, RecompileIsIdempotentOnForwarding) {
  auto before = runtime_.InjectFromParticipant(kA, PacketTo(1, 80));
  runtime_.FullCompile();
  auto after = runtime_.InjectFromParticipant(kA, PacketTo(1, 80));
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(before[0].out_port, after[0].out_port);
  EXPECT_EQ(before[0].packet.header, after[0].packet.header);
}

TEST_F(Figure1Test, OverlappingOutboundClausesFirstMatchWins) {
  // A catch-all clause after the web clause: port 80 still honors the
  // earlier clause; everything else (eligible) follows the catch-all.
  OutboundClause web;
  web.match = Predicate::DstPort(80);
  web.to = kB;
  OutboundClause rest;
  rest.match = Predicate::True();
  rest.to = kC;
  runtime_.SetOutboundPolicy(kA, {web, rest});
  runtime_.FullCompile();

  auto emissions = runtime_.InjectFromParticipant(kA, PacketTo(3, 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kB, 0));
  emissions = runtime_.InjectFromParticipant(kA, PacketTo(3, 22));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port, PortOf(kC, 0));
}

TEST_F(Figure1Test, AdvertisedNextHopReflectsGrouping) {
  // Grouped prefix: VNH from the pool. Ungrouped (p5): real router address.
  auto hop = runtime_.AdvertisedNextHop(kA, P(1));
  ASSERT_TRUE(hop);
  EXPECT_TRUE(net::IPv4Prefix(net::IPv4Address(172, 16, 0, 0), 12)
                  .Contains(*hop));
  hop = runtime_.AdvertisedNextHop(kC, P(5));
  ASSERT_TRUE(hop);
  EXPECT_EQ(*hop, runtime_.RouterIp(kA));
  // No route at all (A's own prefix toward A): nothing advertised.
  EXPECT_FALSE(runtime_.AdvertisedNextHop(kA, P(5)));
}

TEST_F(Figure1Test, AdvertisedNextHopUsesFastPathVnh) {
  bgp::Withdrawal withdrawal;
  withdrawal.from_as = kC;
  withdrawal.prefix = P(1);
  Apply(bgp::BgpUpdate{withdrawal});
  auto hop = runtime_.AdvertisedNextHop(kA, P(1));
  ASSERT_TRUE(hop);
  // Fresh fast-path VNH, resolvable via ARP.
  EXPECT_TRUE(net::IPv4Prefix(net::IPv4Address(172, 16, 0, 0), 12)
                  .Contains(*hop));
  EXPECT_TRUE(runtime_.arp().Resolve(*hop).has_value());
}

TEST_F(Figure1Test, TrafficByParticipantAccountsBothDirections) {
  runtime_.data_plane().ResetStats();
  runtime_.InjectFromParticipant(kA, PacketTo(1, 80));   // A -> B (1000 B)
  runtime_.InjectFromParticipant(kA, PacketTo(3, 443));  // A -> C
  auto matrix = runtime_.TrafficByParticipant();
  EXPECT_EQ(matrix[kA].sent_packets, 2u);
  EXPECT_EQ(matrix[kA].sent_bytes, 2000u);
  EXPECT_EQ(matrix[kA].received_packets, 0u);
  EXPECT_EQ(matrix[kB].received_packets, 1u);
  EXPECT_EQ(matrix[kC].received_packets, 1u);
  EXPECT_EQ(matrix[kB].sent_packets, 0u);
}

// Wide-area load balancing (§3.1, Figure 4b) through a remote participant.
class LoadBalancerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_.AddParticipant(kA, 1);
    runtime_.AddParticipant(kB, 2);
    runtime_.AddParticipant(kD, 0);  // remote AWS tenant

    // The tenant owns and announces the anycast service prefix via the SDX.
    runtime_.route_server().RegisterOwnership(kD, Pfx("74.125.1.0/24"));
    ASSERT_TRUE(runtime_.route_server().Announce(
        kD, Pfx("74.125.1.0/24"), net::IPv4Address(74, 125, 1, 1)));

    // Replica instances live behind B's two ports.
    InboundClause to_instance1;
    to_instance1.match = Predicate::DstIp(Pfx("74.125.1.1/32")) &&
                         Predicate::SrcIp(Pfx("96.25.160.0/24"));
    to_instance1.rewrites.SetDstIp(net::IPv4Address(74, 125, 224, 161));
    to_instance1.port_index = 0;
    to_instance1.via_participant = kB;
    InboundClause to_instance2;
    to_instance2.match = Predicate::DstIp(Pfx("74.125.1.1/32")) &&
                         Predicate::SrcIp(Pfx("128.125.163.0/24"));
    to_instance2.rewrites.SetDstIp(net::IPv4Address(74, 125, 137, 139));
    to_instance2.port_index = 1;
    to_instance2.via_participant = kB;
    runtime_.SetInboundPolicy(kD, {to_instance1, to_instance2});

    runtime_.FullCompile();
  }

  static net::IPv4Prefix Pfx(const char* text) {
    return *net::IPv4Prefix::Parse(text);
  }

  static constexpr AsNumber kD = 400;

  net::Packet Request(net::IPv4Address src) {
    net::Packet p;
    p.header.src_ip = src;
    p.header.dst_ip = net::IPv4Address(74, 125, 1, 1);
    p.header.proto = net::kProtoTcp;
    p.header.dst_port = 80;
    p.size_bytes = 500;
    return p;
  }

  SdxRuntime runtime_;
};

TEST_F(LoadBalancerTest, RequestsSplitByClientPrefix) {
  auto emissions = runtime_.InjectFromParticipant(
      kA, Request(net::IPv4Address(96, 25, 160, 9)));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime_.topology().PhysicalPortOf(kB, 0).id);
  EXPECT_EQ(emissions[0].packet.header.dst_ip,
            net::IPv4Address(74, 125, 224, 161));

  emissions = runtime_.InjectFromParticipant(
      kA, Request(net::IPv4Address(128, 125, 163, 7)));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_EQ(emissions[0].out_port,
            runtime_.topology().PhysicalPortOf(kB, 1).id);
  EXPECT_EQ(emissions[0].packet.header.dst_ip,
            net::IPv4Address(74, 125, 137, 139));
}

TEST_F(LoadBalancerTest, UnmatchedClientDropped) {
  // A client outside both LB prefixes reaches the remote participant's
  // virtual switch and falls through all clauses: dropped (the remote has
  // no physical port of its own).
  auto emissions = runtime_.InjectFromParticipant(
      kA, Request(net::IPv4Address(1, 2, 3, 4)));
  EXPECT_TRUE(emissions.empty());
}

TEST_F(LoadBalancerTest, WithdrawStopsAttractingTraffic) {
  ASSERT_TRUE(
      runtime_.route_server().WithdrawOrigination(kD, Pfx("74.125.1.0/24")));
  runtime_.FullCompile();
  // A no longer has any route to the anycast prefix: router drop.
  auto emissions = runtime_.InjectFromParticipant(
      kA, Request(net::IPv4Address(96, 25, 160, 9)));
  EXPECT_TRUE(emissions.empty());
}

}  // namespace
}  // namespace sdx::core
