#include "rs/route_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

namespace sdx::rs {
namespace {

net::IPv4Prefix Pfx(const char* text) {
  return *net::IPv4Prefix::Parse(text);
}

bgp::BgpUpdate Announce(AsNumber from, const char* prefix,
                        std::vector<bgp::AsNumber> path = {},
                        std::uint32_t local_pref = 100) {
  bgp::Announcement a;
  a.from_as = from;
  a.route.prefix = Pfx(prefix);
  a.route.as_path = path.empty() ? std::vector<bgp::AsNumber>{from}
                                 : std::move(path);
  a.route.local_pref = local_pref;
  a.route.next_hop = net::IPv4Address(192, 168, 0, static_cast<uint8_t>(from));
  return bgp::BgpUpdate{a};
}

bgp::BgpUpdate Withdraw(AsNumber from, const char* prefix) {
  bgp::Withdrawal w;
  w.from_as = from;
  w.prefix = Pfx(prefix);
  return bgp::BgpUpdate{w};
}

class RouteServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.RegisterParticipant(100, net::IPv4Address(1, 0, 0, 1));
    server_.RegisterParticipant(200, net::IPv4Address(2, 0, 0, 1));
    server_.RegisterParticipant(300, net::IPv4Address(3, 0, 0, 1));
    server_.OnBestRouteChange(
        [this](const BestRouteChange& change) { changes_.push_back(change); });
  }
  RouteServer server_;
  // Every best-route change delivered to the subscriber, in order.
  std::vector<BestRouteChange> changes_;
};

TEST_F(RouteServerTest, AnnouncementVisibleToOtherParticipants) {
  EXPECT_EQ(server_.HandleUpdate(Announce(100, "10.0.0.0/8")), 2u);
  ASSERT_EQ(changes_.size(), 2u);  // 200 and 300 gained a best route
  for (const BestRouteChange& change : changes_) {
    EXPECT_FALSE(change.old_best.has_value());
    ASSERT_TRUE(change.new_best.has_value());
    EXPECT_EQ(change.new_best->peer_as, 100u);
  }
  EXPECT_NE(server_.BestRoute(200, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_NE(server_.BestRoute(300, Pfx("10.0.0.0/8")), nullptr);
  // Never reflected back to the announcer.
  EXPECT_EQ(server_.BestRoute(100, Pfx("10.0.0.0/8")), nullptr);
}

TEST_F(RouteServerTest, DuplicateAnnouncementIsNoChange) {
  server_.HandleUpdate(Announce(100, "10.0.0.0/8"));
  changes_.clear();
  EXPECT_EQ(server_.HandleUpdate(Announce(100, "10.0.0.0/8")), 0u);
  EXPECT_TRUE(changes_.empty());
}

TEST_F(RouteServerTest, DecisionProcessPerReceiver) {
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {100, 900}));
  server_.HandleUpdate(Announce(200, "10.0.0.0/8", {200}));
  // 300 sees both candidates; shorter path via 200 wins.
  const auto* best = server_.BestRoute(300, Pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->peer_as, 200u);
  // 200 only sees 100's route.
  best = server_.BestRoute(200, Pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->peer_as, 100u);
}

TEST_F(RouteServerTest, WithdrawalFallsBackToNextBest) {
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {100, 900}));
  server_.HandleUpdate(Announce(200, "10.0.0.0/8", {200}));
  changes_.clear();
  const std::size_t changed = server_.HandleUpdate(Withdraw(200, "10.0.0.0/8"));
  // 300 falls back to 100's route; 100 loses its only route.
  const auto* best = server_.BestRoute(300, Pfx("10.0.0.0/8"));
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->peer_as, 100u);
  EXPECT_EQ(server_.BestRoute(100, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_GE(changes_.size(), 2u);
  EXPECT_EQ(changed, changes_.size());
}

TEST_F(RouteServerTest, ExportDenyHidesRoute) {
  // Figure 1b: B (200) does not export p4 to A (100).
  server_.DenyExport(200, 100, Pfx("10.4.0.0/16"));
  server_.HandleUpdate(Announce(200, "10.4.0.0/16"));
  EXPECT_EQ(server_.BestRoute(100, Pfx("10.4.0.0/16")), nullptr);
  EXPECT_NE(server_.BestRoute(300, Pfx("10.4.0.0/16")), nullptr);

  auto reachable = server_.ReachableVia(100, Pfx("10.4.0.0/16"));
  EXPECT_TRUE(reachable.empty());
  reachable = server_.ReachableVia(300, Pfx("10.4.0.0/16"));
  ASSERT_EQ(reachable.size(), 1u);
  EXPECT_EQ(reachable[0], 200u);
}

TEST_F(RouteServerTest, AllowExportRestoresRoute) {
  server_.DenyExport(200, 100, Pfx("10.4.0.0/16"));
  server_.HandleUpdate(Announce(200, "10.4.0.0/16"));
  server_.AllowExport(200, 100, Pfx("10.4.0.0/16"));
  EXPECT_NE(server_.BestRoute(100, Pfx("10.4.0.0/16")), nullptr);
}

TEST_F(RouteServerTest, ReachableViaListsAllFeasibleNextHops) {
  // Both 100 and 200 announce the prefix; 300 may use either, regardless of
  // which is best (§3.2: "all feasible routes").
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {100, 900}));
  server_.HandleUpdate(Announce(200, "10.0.0.0/8", {200}));
  auto reachable = server_.ReachableVia(300, Pfx("10.0.0.0/8"));
  std::sort(reachable.begin(), reachable.end());
  EXPECT_EQ(reachable, (std::vector<AsNumber>{100, 200}));
}

TEST_F(RouteServerTest, PrefixesReachableViaRespectsExportPolicy) {
  server_.HandleUpdate(Announce(200, "10.1.0.0/16"));
  server_.HandleUpdate(Announce(200, "10.2.0.0/16"));
  server_.DenyExport(200, 100, Pfx("10.2.0.0/16"));
  auto prefixes = server_.PrefixesReachableVia(100, 200);
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_EQ(prefixes[0], Pfx("10.1.0.0/16"));
}

TEST_F(RouteServerTest, LoopedPathsExcluded) {
  // A route whose AS path already contains the receiver is not usable.
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {100, 300, 900}));
  EXPECT_EQ(server_.BestRoute(300, Pfx("10.0.0.0/8")), nullptr);
  EXPECT_NE(server_.BestRoute(200, Pfx("10.0.0.0/8")), nullptr);
}

TEST_F(RouteServerTest, BestRouteChangeCallbackFires) {
  std::vector<BestRouteChange> seen;
  server_.OnBestRouteChange(
      [&](const BestRouteChange& change) { seen.push_back(change); });
  server_.HandleUpdate(Announce(100, "10.0.0.0/8"));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_FALSE(seen[0].old_best);
  ASSERT_TRUE(seen[0].new_best);
  EXPECT_EQ(seen[0].new_best->peer_as, 100u);
}

TEST_F(RouteServerTest, DecisionEventsCarryOldAndNewNextHop) {
  obs::Journal journal;
  server_.SetSinks(obs::Sinks{.journal = &journal});
  using Decision = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  // (receiver, new best peer, old best peer) of every rs_decision event
  // recorded since the last call; 0 = no route.
  std::uint64_t cursor = 0;
  auto decisions = [&] {
    std::vector<Decision> out;
    for (const obs::JournalEvent& event : journal.TailSince(cursor)) {
      if (event.type != obs::JournalEventType::kRsDecision) continue;
      EXPECT_EQ(event.detail, "10.0.0.0/8");
      out.emplace_back(event.arg0, event.arg1, event.arg2);
    }
    cursor = journal.next_seq();
    return out;
  };

  // 200 and 300 gain 100's route.
  server_.HandleUpdate(Announce(100, "10.0.0.0/8", {100, 900}));
  EXPECT_EQ(decisions(),
            (std::vector<Decision>{{200, 100, 0}, {300, 100, 0}}));

  // 200's shorter path wins: 100 gains it, 300 moves off 100.
  server_.HandleUpdate(Announce(200, "10.0.0.0/8", {200}));
  EXPECT_EQ(decisions(),
            (std::vector<Decision>{{100, 200, 0}, {300, 200, 100}}));

  // Withdrawing it: 100 loses its only route, 300 falls back to 100.
  server_.HandleUpdate(Withdraw(200, "10.0.0.0/8"));
  EXPECT_EQ(decisions(),
            (std::vector<Decision>{{100, 0, 200}, {300, 100, 200}}));

  // The subscriber saw the same changes, with both routes copied.
  ASSERT_EQ(changes_.size(), 6u);
  EXPECT_EQ(changes_[3].receiver, 300u);
  ASSERT_TRUE(changes_[3].old_best && changes_[3].new_best);
  EXPECT_EQ(changes_[3].old_best->peer_as, 100u);
  EXPECT_EQ(changes_[3].new_best->peer_as, 200u);
  EXPECT_FALSE(changes_[4].new_best);
}

TEST_F(RouteServerTest, OriginationRequiresOwnership) {
  EXPECT_FALSE(server_.Announce(100, Pfx("74.125.1.0/24"),
                                net::IPv4Address(9, 9, 9, 9)));
  server_.RegisterOwnership(100, Pfx("74.125.1.0/24"));
  EXPECT_TRUE(server_.Announce(100, Pfx("74.125.1.0/24"),
                               net::IPv4Address(9, 9, 9, 9)));
  EXPECT_NE(server_.BestRoute(200, Pfx("74.125.1.0/24")), nullptr);
  EXPECT_TRUE(server_.WithdrawOrigination(100, Pfx("74.125.1.0/24")));
  EXPECT_EQ(server_.BestRoute(200, Pfx("74.125.1.0/24")), nullptr);
}

TEST_F(RouteServerTest, UpdateFromUnknownParticipantThrows) {
  EXPECT_THROW(server_.HandleUpdate(Announce(999, "10.0.0.0/8")),
               std::invalid_argument);
}

TEST_F(RouteServerTest, QueriesEnumeratePrefixes) {
  server_.HandleUpdate(Announce(100, "10.0.0.0/8"));
  server_.HandleUpdate(Announce(200, "20.0.0.0/8"));
  EXPECT_EQ(server_.AllPrefixes().size(), 2u);
  EXPECT_EQ(server_.PrefixesAnnouncedBy(100).size(), 1u);
  EXPECT_EQ(server_.PrefixesAnnouncedBy(300).size(), 0u);
  EXPECT_EQ(server_.updates_processed(), 2u);
}

}  // namespace
}  // namespace sdx::rs
