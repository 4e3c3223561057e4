// Control-community handling in the route server (bgp/communities.h) and
// the RIB-derived policy helpers of §3.2.
#include <gtest/gtest.h>

#include "sdx/bgp_filter.h"

namespace sdx::rs {
namespace {

net::IPv4Prefix Pfx(const char* text) {
  return *net::IPv4Prefix::Parse(text);
}

bgp::BgpUpdate Announce(AsNumber from, const char* prefix,
                        std::vector<std::uint32_t> communities = {},
                        std::vector<bgp::AsNumber> path = {}) {
  bgp::Announcement a;
  a.from_as = from;
  a.route.prefix = Pfx(prefix);
  a.route.as_path =
      path.empty() ? std::vector<bgp::AsNumber>{from} : std::move(path);
  a.route.communities = std::move(communities);
  return bgp::BgpUpdate{a};
}

class CommunityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.SetRouteServerAs(64999);
    server_.RegisterParticipant(100, net::IPv4Address(1, 0, 0, 1));
    server_.RegisterParticipant(200, net::IPv4Address(2, 0, 0, 1));
    server_.RegisterParticipant(300, net::IPv4Address(3, 0, 0, 1));
  }
  RouteServer server_;
};

TEST(CommunityHelpers, EncodeDecode) {
  const std::uint32_t c = bgp::MakeCommunity(64999, 200);
  EXPECT_EQ(bgp::CommunityHigh(c), 64999);
  EXPECT_EQ(bgp::CommunityLow(c), 200);
  EXPECT_EQ(bgp::DenyPeer(300), bgp::MakeCommunity(0, 300));
  EXPECT_EQ(bgp::OnlyPeer(64999, 200), c);
}

TEST(CommunityHelpers, PermitLogic) {
  using bgp::CommunitiesPermitExport;
  std::vector<std::uint32_t> none;
  EXPECT_TRUE(CommunitiesPermitExport(none, 100, 64999));

  std::vector<std::uint32_t> no_export = {bgp::kNoExport};
  EXPECT_FALSE(CommunitiesPermitExport(no_export, 100, 64999));

  std::vector<std::uint32_t> deny_100 = {bgp::DenyPeer(100)};
  EXPECT_FALSE(CommunitiesPermitExport(deny_100, 100, 64999));
  EXPECT_TRUE(CommunitiesPermitExport(deny_100, 200, 64999));

  std::vector<std::uint32_t> only_200 = {bgp::OnlyPeer(64999, 200)};
  EXPECT_TRUE(CommunitiesPermitExport(only_200, 200, 64999));
  EXPECT_FALSE(CommunitiesPermitExport(only_200, 100, 64999));
}

TEST_F(CommunityTest, NoExportHidesFromEveryone) {
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {bgp::kNoExport}));
  EXPECT_EQ(server_.BestRoute(200, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(server_.BestRoute(300, Pfx("10.0.0.0/8")), nullptr);
}

TEST_F(CommunityTest, DenyPeerCommunityHidesFromOnePeer) {
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {bgp::DenyPeer(200)}));
  EXPECT_EQ(server_.BestRoute(200, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_NE(server_.BestRoute(300, Pfx("10.0.0.0/8")), nullptr);
}

TEST_F(CommunityTest, OnlyPeerCommunityRestrictsToAllowList) {
  server_.HandleUpdate(
      Announce(100, "10.0.0.0/8", {bgp::OnlyPeer(64999, 300)}));
  EXPECT_EQ(server_.BestRoute(200, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_NE(server_.BestRoute(300, Pfx("10.0.0.0/8")), nullptr);
}

TEST_F(CommunityTest, CommunityChangeOnReannouncementTakesEffect) {
  server_.HandleUpdate(Announce(100, "10.0.0.0/8"));
  EXPECT_NE(server_.BestRoute(200, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_GT(
      server_.HandleUpdate(Announce(100, "10.0.0.0/8", {bgp::DenyPeer(200)})),
      0u);
  EXPECT_EQ(server_.BestRoute(200, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_NE(server_.BestRoute(300, Pfx("10.0.0.0/8")), nullptr);
}

TEST_F(CommunityTest, CommunityFilteredRoutesExcludedFromEligibility) {
  server_.HandleUpdate(Announce(200, "10.1.0.0/16", {bgp::DenyPeer(100)}));
  server_.HandleUpdate(Announce(200, "10.2.0.0/16"));
  core::OutboundClause clause;
  clause.to = 200;
  auto eligible = core::EligiblePrefixes(server_, 100, clause);
  ASSERT_EQ(eligible.size(), 1u);
  EXPECT_EQ(eligible[0], Pfx("10.2.0.0/16"));
  EXPECT_FALSE(server_.ExportsTo(200, 100, Pfx("10.1.0.0/16")));
}

TEST_F(CommunityTest, FallbackToAllowedRoute) {
  // 100's route is hidden from 300 by community; 200's route, though worse,
  // becomes 300's best.
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {bgp::DenyPeer(300)},
                                {100}));
  server_.HandleUpdate(Announce(200, "10.0.0.0/8", {}, {200, 900, 901}));
  const auto* best = server_.BestRoute(300, Pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->peer_as, 200u);
  // 200 itself still prefers 100's (shorter) route.
  best = server_.BestRoute(200, Pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->peer_as, 100u);
}

class RibFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.RegisterParticipant(100, net::IPv4Address(1, 0, 0, 1));
    server_.RegisterParticipant(200, net::IPv4Address(2, 0, 0, 1));
    // Two YouTube-originated prefixes (origin AS 43515) and one other.
    server_.HandleUpdate(
        Announce(200, "208.65.152.0/22", {}, {200, 43515}));
    server_.HandleUpdate(
        Announce(200, "208.117.224.0/19", {}, {200, 3356, 43515}));
    server_.HandleUpdate(Announce(200, "8.8.8.0/24", {}, {200, 15169}));
  }
  RouteServer server_;
};

TEST_F(RibFilterTest, PrefixesMatchingAsPath) {
  auto pattern = bgp::AsPathPattern::Compile(".*43515$");
  ASSERT_TRUE(pattern);
  auto prefixes = core::PrefixesMatchingAsPath(server_, 100, *pattern);
  EXPECT_EQ(prefixes.size(), 2u);
}

TEST_F(RibFilterTest, PrefixesOriginatedBy) {
  EXPECT_EQ(core::PrefixesOriginatedBy(server_, 100, 43515).size(), 2u);
  EXPECT_EQ(core::PrefixesOriginatedBy(server_, 100, 15169).size(), 1u);
  EXPECT_EQ(core::PrefixesOriginatedBy(server_, 100, 99999).size(), 0u);
  // An unknown receiver sees nothing.
  EXPECT_EQ(core::PrefixesOriginatedBy(server_, 999, 43515).size(), 0u);
}

TEST_F(RibFilterTest, SrcFromAsPathPredicate) {
  auto pattern = bgp::AsPathPattern::Compile(".*43515$");
  ASSERT_TRUE(pattern);
  auto predicate = core::SrcFromAsPath(server_, 100, *pattern);
  net::PacketHeader from_youtube;
  from_youtube.src_ip = net::IPv4Address(208, 65, 153, 1);
  EXPECT_TRUE(predicate.Eval(from_youtube));
  net::PacketHeader from_google;
  from_google.src_ip = net::IPv4Address(8, 8, 8, 8);
  EXPECT_FALSE(predicate.Eval(from_google));
}

}  // namespace
}  // namespace sdx::rs
