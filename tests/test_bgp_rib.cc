#include "bgp/rib.h"

#include <gtest/gtest.h>

namespace sdx::bgp {
namespace {

net::IPv4Prefix Pfx(const char* text) {
  return *net::IPv4Prefix::Parse(text);
}

BgpRoute MakeRoute(const char* prefix, std::vector<AsNumber> path) {
  BgpRoute route;
  route.prefix = Pfx(prefix);
  route.as_path = std::move(path);
  route.next_hop = net::IPv4Address(192, 168, 0, 1);
  return route;
}

TEST(AdjRibIn, AnnounceInsertsAndDetectsChange) {
  AdjRibIn rib;
  EXPECT_TRUE(rib.Announce(MakeRoute("10.0.0.0/8", {100})));
  EXPECT_FALSE(rib.Announce(MakeRoute("10.0.0.0/8", {100})));  // no change
  EXPECT_TRUE(rib.Announce(MakeRoute("10.0.0.0/8", {100, 200})));  // replaced
  EXPECT_EQ(rib.size(), 1u);
}

TEST(AdjRibIn, WithdrawReturnsRemovedRoute) {
  AdjRibIn rib;
  rib.Announce(MakeRoute("10.0.0.0/8", {100}));
  auto removed = rib.Withdraw(Pfx("10.0.0.0/8"));
  ASSERT_TRUE(removed);
  EXPECT_EQ(removed->as_path, std::vector<AsNumber>{100});
  EXPECT_FALSE(rib.Withdraw(Pfx("10.0.0.0/8")));
  EXPECT_EQ(rib.size(), 0u);
}

TEST(AdjRibIn, FindExactOnly) {
  AdjRibIn rib;
  rib.Announce(MakeRoute("10.0.0.0/8", {100}));
  EXPECT_NE(rib.Find(Pfx("10.0.0.0/8")), nullptr);
  EXPECT_EQ(rib.Find(Pfx("10.0.0.0/16")), nullptr);
}

TEST(AdjRibIn, ForEachVisitsAll) {
  AdjRibIn rib;
  rib.Announce(MakeRoute("10.0.0.0/8", {100}));
  rib.Announce(MakeRoute("20.0.0.0/8", {100}));
  std::size_t count = 0;
  rib.ForEach([&](const BgpRoute&) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(LocRib, SetAndRemove) {
  LocRib rib;
  EXPECT_TRUE(rib.Set(MakeRoute("10.0.0.0/8", {100})));
  EXPECT_FALSE(rib.Set(MakeRoute("10.0.0.0/8", {100})));
  EXPECT_TRUE(rib.Set(MakeRoute("10.0.0.0/8", {200})));
  auto removed = rib.Remove(Pfx("10.0.0.0/8"));
  ASSERT_TRUE(removed);
  EXPECT_EQ(removed->as_path, std::vector<AsNumber>{200});
  EXPECT_EQ(rib.size(), 0u);
}

TEST(LocRib, FilterByAsPath) {
  LocRib rib;
  rib.Set(MakeRoute("10.0.0.0/8", {100, 43515}));
  rib.Set(MakeRoute("20.0.0.0/8", {100, 200}));
  rib.Set(MakeRoute("30.0.0.0/8", {43515}));
  auto pattern = AsPathPattern::Compile(".*43515$");
  ASSERT_TRUE(pattern);
  auto matches = rib.FilterByAsPath(*pattern);
  EXPECT_EQ(matches.size(), 2u);
}

}  // namespace
}  // namespace sdx::bgp
