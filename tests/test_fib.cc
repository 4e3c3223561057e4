// The shared border-router FIB (sdx/fib.h): unit cases, a fuzz against one
// per-router trie each (net::PrefixMap, the reference model), and
// runtime-level checks of the FIB against the route server's
// advertisements through full, fast-path and incremental compiles.
#include "sdx/fib.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "net/prefix_trie.h"
#include "sdx/runtime.h"

namespace sdx::core {
namespace {

net::IPv4Prefix Pfx(const char* text) { return *net::IPv4Prefix::Parse(text); }
net::IPv4Address Ip(const char* text) { return *net::IPv4Address::Parse(text); }

constexpr net::IPv4Address kAbsent{};

TEST(Fib, SharedNextHopServesEveryRouter) {
  Fib fib;
  fib.Set(Pfx("10.1.0.0/24"), Ip("192.168.0.1"), {});
  for (std::uint32_t router = 0; router < 5; ++router) {
    EXPECT_EQ(fib.Lookup(router, Ip("10.1.0.9")), Ip("192.168.0.1"));
    EXPECT_FALSE(fib.Lookup(router, Ip("10.1.1.9")));
    EXPECT_EQ(fib.RouteCount(router), 1u);
  }
  EXPECT_EQ(fib.size(), 1u);
}

TEST(Fib, OverrideReturnsItsOwnNextHop) {
  Fib fib;
  fib.Set(Pfx("10.1.0.0/24"), Ip("192.168.0.1"),
          {{3, Ip("192.168.0.7")}});
  EXPECT_EQ(fib.Lookup(3, Ip("10.1.0.9")), Ip("192.168.0.7"));
  EXPECT_EQ(fib.Lookup(2, Ip("10.1.0.9")), Ip("192.168.0.1"));
  EXPECT_EQ(fib.Find(3, Pfx("10.1.0.0/24")), Ip("192.168.0.7"));
}

TEST(Fib, AbsentFallsBackToTheNextShorterPrefix) {
  Fib fib;
  fib.Set(Pfx("10.0.0.0/8"), Ip("192.168.0.8"), {{1, kAbsent}});
  fib.Set(Pfx("10.1.0.0/16"), Ip("192.168.0.16"), {});
  fib.Set(Pfx("10.1.7.0/24"), Ip("192.168.0.24"), {{0, kAbsent}, {1, kAbsent}});
  // Router 0 lacks the /24: the /16 covers it.
  EXPECT_EQ(fib.Lookup(0, Ip("10.1.7.1")), Ip("192.168.0.16"));
  // Router 1 lacks the /24 and the /8, and has the /16.
  EXPECT_EQ(fib.Lookup(1, Ip("10.1.7.1")), Ip("192.168.0.16"));
  EXPECT_FALSE(fib.Lookup(1, Ip("10.2.0.1")));
  // Router 2 has everything.
  EXPECT_EQ(fib.Lookup(2, Ip("10.1.7.1")), Ip("192.168.0.24"));
  EXPECT_FALSE(fib.Find(0, Pfx("10.1.7.0/24")));
  EXPECT_EQ(fib.RouteCount(0), 2u);
  EXPECT_EQ(fib.RouteCount(1), 1u);
  EXPECT_EQ(fib.RouteCount(2), 3u);
}

TEST(Fib, SharedNoneRoutesOnlyTheOverrides) {
  Fib fib;
  fib.Set(Pfx("0.0.0.0/0"), Ip("192.168.0.99"), {});
  fib.Set(Pfx("10.1.0.0/16"), kAbsent, {{4, Ip("192.168.0.4")}});
  EXPECT_EQ(fib.Lookup(4, Ip("10.1.2.3")), Ip("192.168.0.4"));
  EXPECT_EQ(fib.Lookup(5, Ip("10.1.2.3")), Ip("192.168.0.99"));
  EXPECT_EQ(fib.RouteCount(4), 2u);
  EXPECT_EQ(fib.RouteCount(5), 1u);
}

TEST(Fib, AnEntryWithoutAnyRouteIsErased) {
  Fib fib;
  fib.Set(Pfx("10.1.0.0/16"), Ip("192.168.0.1"), {{0, kAbsent}});
  fib.Set(Pfx("10.1.0.0/16"), kAbsent, {{0, kAbsent}});
  EXPECT_EQ(fib.size(), 0u);
  EXPECT_EQ(fib.RouteCount(0), 0u);
  EXPECT_EQ(fib.RouteCount(1), 0u);
  EXPECT_FALSE(fib.Lookup(1, Ip("10.1.0.1")));
}

TEST(Fib, ReplacingAnEntryRecountsRoutes) {
  Fib fib;
  fib.Set(Pfx("10.1.0.0/16"), Ip("192.168.0.1"), {{0, kAbsent}});
  EXPECT_EQ(fib.RouteCount(0), 0u);
  fib.Set(Pfx("10.1.0.0/16"), Ip("192.168.0.2"), {{1, kAbsent}});
  EXPECT_EQ(fib.RouteCount(0), 1u);
  EXPECT_EQ(fib.RouteCount(1), 0u);
  EXPECT_EQ(fib.Lookup(0, Ip("10.1.0.1")), Ip("192.168.0.2"));
  fib.Erase(Pfx("10.1.0.0/16"));
  EXPECT_EQ(fib.RouteCount(0), 0u);
  EXPECT_EQ(fib.RouteCount(1), 0u);
  EXPECT_FALSE(fib.Lookup(0, Ip("10.1.0.1")));
}

// ---------------------------------------------------------------------------
// Fuzz: the shared FIB against one trie per router (the per-router FIBs the
// shared one replaced). Nested prefixes of mixed lengths inside a few
// anchors, random shared next hops (or none), random absent and override
// exceptions, and random rewrites and erasures between lookups.

class FibFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FibFuzz, MatchesPerRouterTries) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()));
  constexpr std::uint32_t kRouters = 12;
  const std::vector<std::uint32_t> anchors = {0x0A000000u, 0x0A010000u,
                                              0xC6336400u, 0x00000000u};
  const std::vector<std::uint8_t> lengths = {0,  8,  12, 16, 20, 22,
                                             23, 24, 25, 28, 31, 32};
  auto random_address = [&] {
    // Mostly near an anchor, so lookups cross nested entries.
    const std::uint32_t anchor = anchors[rng() % anchors.size()];
    const std::uint32_t spread = (rng() % 3 == 0) ? 0xFFFFFFu : 0x3FFu;
    return net::IPv4Address(anchor ^ (static_cast<std::uint32_t>(rng()) &
                                      spread));
  };
  auto random_prefix = [&] {
    return net::IPv4Prefix(random_address(), lengths[rng() % lengths.size()]);
  };
  auto random_hop = [&] {
    return net::IPv4Address(0xC0A80000u + 1 + rng() % 6);
  };

  Fib fib;
  std::vector<net::PrefixMap<net::IPv4Address>> reference(kRouters);
  std::vector<net::IPv4Prefix> written;

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng() % 10);
    if (op < 6 || written.empty()) {
      const net::IPv4Prefix prefix = rng() % 4 == 0 && !written.empty()
                                         ? written[rng() % written.size()]
                                         : random_prefix();
      const net::IPv4Address shared = rng() % 5 == 0 ? kAbsent : random_hop();
      std::vector<Fib::Exception> exceptions;
      for (std::uint32_t router = 0; router < kRouters; ++router) {
        if (rng() % 4 != 0) continue;
        exceptions.push_back({router, rng() % 2 == 0 ? kAbsent : random_hop()});
      }
      std::shuffle(exceptions.begin(), exceptions.end(), rng);
      for (std::uint32_t router = 0; router < kRouters; ++router) {
        net::IPv4Address hop = shared;
        for (const Fib::Exception& exception : exceptions) {
          if (exception.router == router) hop = exception.next_hop;
        }
        if (hop == kAbsent) {
          reference[router].Erase(prefix);
        } else {
          reference[router].Insert(prefix, hop);
        }
      }
      fib.Set(prefix, shared, std::move(exceptions));
      written.push_back(prefix);
    } else if (op < 8) {
      const net::IPv4Prefix prefix = written[rng() % written.size()];
      for (auto& trie : reference) trie.Erase(prefix);
      fib.Erase(prefix);
    } else {
      for (int probe = 0; probe < 40; ++probe) {
        const auto router = static_cast<std::uint32_t>(rng() % kRouters);
        const net::IPv4Address address = random_address();
        const auto want = reference[router].LongestMatch(address);
        const auto got = fib.Lookup(router, address);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "router " << router << " address " << address.ToString()
            << " step " << step;
        if (want) {
          ASSERT_EQ(*got, *want->second)
              << "router " << router << " address " << address.ToString()
              << " matched " << want->first.ToString() << " step " << step;
        }
      }
    }
    if (step % 100 == 0) {
      for (std::uint32_t router = 0; router < kRouters; ++router) {
        ASSERT_EQ(fib.RouteCount(router), reference[router].size())
            << "router " << router << " step " << step;
      }
    }
  }
  // Every written prefix, exactly, for every router.
  for (const net::IPv4Prefix& prefix : written) {
    for (std::uint32_t router = 0; router < kRouters; ++router) {
      const net::IPv4Address* want = reference[router].Find(prefix);
      const auto got = fib.Find(router, prefix);
      ASSERT_EQ(got.has_value(), want != nullptr) << prefix.ToString();
      if (want != nullptr) {
        ASSERT_EQ(*got, *want) << prefix.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibFuzz, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Runtime level: every border router's FIB agrees with what the route
// server advertises to it, through the first compile, fast-path bursts
// (with withdrawals) and the incremental compile after them. perfbench's
// correctness gate compares two runtimes that share this FIB code, so it
// cannot catch a bug here; the route server can.

class FibRouteServerTest : public ::testing::Test {
 protected:
  static constexpr AsNumber kA = 100, kB = 200, kC = 300, kD = 400,
                            kE = 500;

  void SetUp() override {
    for (AsNumber as : {kA, kB, kC, kD, kE}) {
      runtime_.AddParticipant(as, as == kB ? 2 : 1);
    }
    // p0..p11: multi-announcer prefixes with different path lengths;
    // p12..p15: single announcers; p16: announced by two, withdrawn later
    // by both; p17 and p18: announced alike, so they share a group until
    // an update moves p17's best route and the next compile splits them.
    for (int i = 0; i < 12; ++i) {
      runtime_.AnnouncePrefix(kB, P(i), Path(kB, i % 3));
      runtime_.AnnouncePrefix(kC, P(i), Path(kC, (i + 1) % 3));
      if (i % 2 == 0) runtime_.AnnouncePrefix(kD, P(i), Path(kD, i % 4));
    }
    runtime_.AnnouncePrefix(kA, P(12));
    runtime_.AnnouncePrefix(kB, P(13));
    runtime_.AnnouncePrefix(kD, P(14));
    runtime_.AnnouncePrefix(kE, P(15));
    runtime_.AnnouncePrefix(kC, P(16));
    runtime_.AnnouncePrefix(kD, P(16), {kD, 901});
    for (int i : {17, 18}) {
      runtime_.AnnouncePrefix(kB, P(i), {kB, 901});
      runtime_.AnnouncePrefix(kC, P(i), {kC, 901});
    }
    // Export denies: some receivers lose the best route, some every route.
    runtime_.route_server().DenyExport(kC, kA, P(1));
    runtime_.route_server().DenyExport(kB, kA, P(1));
    runtime_.route_server().DenyExport(kC, kE, P(2));
    runtime_.route_server().DenyExport(kD, kA, P(14));
    runtime_.route_server().DenyExport(kB, kD, P(5));

    OutboundClause web;
    web.match = policy::Predicate::DstPort(80);
    web.to = kB;
    OutboundClause https;
    https.match = policy::Predicate::DstPort(443);
    https.to = kC;
    https.dst_prefixes = {P(2), P(3), P(4), P(16)};
    runtime_.SetOutboundPolicy(kA, {web, https});
    OutboundClause ssh;
    ssh.match = policy::Predicate::DstPort(22);
    ssh.to = kD;
    runtime_.SetOutboundPolicy(kE, {ssh});
  }

  static constexpr int kPrefixes = 19;
  static net::IPv4Prefix P(int i) {
    return net::IPv4Prefix(
        net::IPv4Address(10, 20, static_cast<std::uint8_t>(i), 0), 24);
  }

  static std::vector<bgp::AsNumber> Path(AsNumber as, int extra) {
    std::vector<bgp::AsNumber> path = {as};
    for (int k = 0; k < extra; ++k) {
      path.push_back(static_cast<bgp::AsNumber>(900 + k));
    }
    return path;
  }

  bgp::BgpUpdate Announce(AsNumber from, int i, int extra) {
    bgp::Announcement a;
    a.from_as = from;
    a.route.prefix = P(i);
    a.route.next_hop = runtime_.RouterIp(from);
    a.route.as_path = Path(from, extra);
    return bgp::BgpUpdate{a};
  }

  static bgp::BgpUpdate Withdraw(AsNumber from, int i) {
    bgp::Withdrawal w;
    w.from_as = from;
    w.prefix = P(i);
    return bgp::BgpUpdate{w};
  }

  void ExpectFibMatchesRouteServer(const char* when) {
    std::size_t fib_routes = 0;
    std::size_t rib_routes = 0;
    for (AsNumber receiver : {kA, kB, kC, kD, kE}) {
      const BorderRouter* router = runtime_.FindRouter(receiver);
      ASSERT_NE(router, nullptr);
      for (int i = 0; i < kPrefixes; ++i) {
        EXPECT_EQ(router->NextHopFor(P(i).network()),
                  runtime_.AdvertisedNextHop(receiver, P(i)))
            << when << ": AS" << receiver << " " << P(i).ToString();
      }
      fib_routes += router->fib_size();
      rib_routes += runtime_.route_server().LocRibFor(receiver)->size();
    }
    EXPECT_EQ(fib_routes, rib_routes) << when;
  }

  SdxRuntime runtime_;
};

TEST_F(FibRouteServerTest, FibFollowsTheRouteServerThroughEveryPath) {
  const CompileStats first = runtime_.FullCompile();
  EXPECT_FALSE(first.incremental);
  ExpectFibMatchesRouteServer("after the first compile");
  const AnnotatedGroup* shared = runtime_.groups().FindByPrefix(P(18));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(runtime_.groups().FindByPrefix(P(17)), shared);

  const std::vector<std::vector<bgp::BgpUpdate>> bursts = {
      // The best route of p0 moves; p16 loses one of its two announcers.
      {Announce(kD, 0, 0), Withdraw(kC, 16)},
      // p16 loses its last announcer; p13's only announcer withdraws.
      {Withdraw(kD, 16), Withdraw(kB, 13), Announce(kE, 3, 0)},
      // Withdraw the current best of p1 (A was denied it anyway) and of p2.
      {Withdraw(kB, 1), Withdraw(kC, 2), Withdraw(kB, 2)},
      // p13 comes back from elsewhere; p17's best route moves to E.
      {Announce(kC, 13, 2), Announce(kE, 5, 1), Announce(kE, 7, 0),
       Announce(kE, 17, 0)},
  };
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    const BatchStats stats = runtime_.ApplyUpdates(bursts[b]);
    EXPECT_TRUE(stats.compiled) << "burst " << b;
    ExpectFibMatchesRouteServer(
        ("after fast-path burst " + std::to_string(b)).c_str());
  }
  // p16 is gone for everyone.
  for (AsNumber receiver : {kA, kB, kC, kD, kE}) {
    EXPECT_FALSE(runtime_.FindRouter(receiver)->NextHopFor(P(16).network()));
  }

  // A policy edit (which keeps the next compile incremental) overrides
  // A's own p12, which no update touched: its next hop moves from A's
  // router address to a VNH, and only the binding diff puts it in the
  // re-advertisement.
  EXPECT_EQ(runtime_.groups().FindByPrefix(P(12)), nullptr);
  OutboundClause to_a;
  to_a.match = policy::Predicate::DstPort(8080);
  to_a.to = kA;
  runtime_.SetOutboundPolicy(kB, {to_a});

  const CompileStats background = runtime_.FullCompile();
  EXPECT_TRUE(background.incremental);
  EXPECT_NE(runtime_.groups().FindByPrefix(P(12)), nullptr);
  EXPECT_NE(runtime_.groups().FindByPrefix(P(17)),
            runtime_.groups().FindByPrefix(P(18)));
  ExpectFibMatchesRouteServer("after the incremental compile");
}

}  // namespace
}  // namespace sdx::core
