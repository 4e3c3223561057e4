#include "dataplane/arp.h"

#include <gtest/gtest.h>

namespace sdx::dataplane {
namespace {

using net::IPv4Address;
using net::MacAddress;

TEST(ArpResponder, ResolvesBoundAddress) {
  ArpResponder arp;
  arp.Bind(IPv4Address(172, 16, 0, 1), MacAddress(0xAA));
  auto mac = arp.Resolve(IPv4Address(172, 16, 0, 1));
  ASSERT_TRUE(mac);
  EXPECT_EQ(*mac, MacAddress(0xAA));
}

TEST(ArpResponder, UnknownAddressUnanswered) {
  ArpResponder arp;
  EXPECT_FALSE(arp.Resolve(IPv4Address(172, 16, 0, 1)));
}

TEST(ArpResponder, RebindReplacesMac) {
  ArpResponder arp;
  arp.Bind(IPv4Address(172, 16, 0, 1), MacAddress(0xAA));
  arp.Bind(IPv4Address(172, 16, 0, 1), MacAddress(0xBB));
  EXPECT_EQ(arp.size(), 1u);
  EXPECT_EQ(*arp.Resolve(IPv4Address(172, 16, 0, 1)), MacAddress(0xBB));
}

TEST(ArpResponder, UnbindRemoves) {
  ArpResponder arp;
  arp.Bind(IPv4Address(172, 16, 0, 1), MacAddress(0xAA));
  EXPECT_TRUE(arp.Unbind(IPv4Address(172, 16, 0, 1)));
  EXPECT_FALSE(arp.Unbind(IPv4Address(172, 16, 0, 1)));
  EXPECT_FALSE(arp.Resolve(IPv4Address(172, 16, 0, 1)));
}

TEST(ArpResponder, RequesterAwareResolveFallsThroughToPlainBindings) {
  ArpResponder arp;
  arp.Bind(IPv4Address(172, 16, 0, 1), MacAddress(0xAA));
  EXPECT_EQ(*arp.Resolve(IPv4Address(172, 16, 0, 1), 100), MacAddress(0xAA));
}

TEST(ArpResponder, CountsQueriesAndHits) {
  ArpResponder arp;
  arp.Bind(IPv4Address(172, 16, 0, 1), MacAddress(0xAA));
  arp.Resolve(IPv4Address(172, 16, 0, 1));
  arp.Resolve(IPv4Address(172, 16, 0, 2));
  EXPECT_EQ(arp.query_count(), 2u);
  EXPECT_EQ(arp.hit_count(), 1u);
}

}  // namespace
}  // namespace sdx::dataplane
