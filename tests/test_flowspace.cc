#include "net/flowspace.h"

#include <gtest/gtest.h>

#include <random>

namespace sdx::net {
namespace {

IPv4Prefix Pfx(const char* text) {
  auto p = IPv4Prefix::Parse(text);
  EXPECT_TRUE(p) << text;
  return *p;
}

PacketHeader WebPacket() {
  PacketHeader h;
  h.in_port = 1;
  h.src_mac = MacAddress(0x1);
  h.dst_mac = MacAddress(0x2);
  h.src_ip = IPv4Address(10, 0, 0, 1);
  h.dst_ip = IPv4Address(74, 125, 1, 1);
  h.proto = kProtoTcp;
  h.src_port = 50000;
  h.dst_port = 80;
  return h;
}

TEST(FieldMatch, WildcardMatchesEverything) {
  FieldMatch m;
  EXPECT_TRUE(m.IsWildcard());
  EXPECT_TRUE(m.Matches(WebPacket()));
  EXPECT_EQ(m.ConstrainedFieldCount(), 0);
}

TEST(FieldMatch, SingleFieldMatching) {
  EXPECT_TRUE(FieldMatch::DstPort(80).Matches(WebPacket()));
  EXPECT_FALSE(FieldMatch::DstPort(443).Matches(WebPacket()));
  EXPECT_TRUE(FieldMatch::InPort(1).Matches(WebPacket()));
  EXPECT_FALSE(FieldMatch::InPort(2).Matches(WebPacket()));
  EXPECT_TRUE(FieldMatch::DstIp(Pfx("74.125.0.0/16")).Matches(WebPacket()));
  EXPECT_FALSE(FieldMatch::DstIp(Pfx("74.126.0.0/16")).Matches(WebPacket()));
  EXPECT_TRUE(FieldMatch::Proto(kProtoTcp).Matches(WebPacket()));
}

TEST(FieldMatch, ConjunctionMatching) {
  auto m = FieldMatch::DstPort(80).WithInPort(1).WithSrcIp(Pfx("10.0.0.0/8"));
  EXPECT_EQ(m.ConstrainedFieldCount(), 3);
  EXPECT_TRUE(m.Matches(WebPacket()));
  auto p = WebPacket();
  p.src_ip = IPv4Address(11, 0, 0, 1);
  EXPECT_FALSE(m.Matches(p));
}

TEST(FieldMatch, IntersectDisjointExactFields) {
  auto a = FieldMatch::DstPort(80);
  auto b = FieldMatch::DstPort(443);
  EXPECT_FALSE(a.Intersect(b));
  EXPECT_TRUE(a.IsDisjoint(b));
}

TEST(FieldMatch, IntersectOrthogonalFields) {
  auto a = FieldMatch::DstPort(80);
  auto b = FieldMatch::SrcIp(Pfx("0.0.0.0/1"));
  auto i = a.Intersect(b);
  ASSERT_TRUE(i);
  EXPECT_EQ(i->dst_port(), std::uint16_t{80});
  EXPECT_EQ(i->src_ip(), Pfx("0.0.0.0/1"));
  EXPECT_EQ(i->ConstrainedFieldCount(), 2);
}

TEST(FieldMatch, IntersectPrefixesTakesLonger) {
  auto a = FieldMatch::DstIp(Pfx("10.0.0.0/8"));
  auto b = FieldMatch::DstIp(Pfx("10.1.0.0/16"));
  auto i = a.Intersect(b);
  ASSERT_TRUE(i);
  EXPECT_EQ(i->dst_ip(), Pfx("10.1.0.0/16"));
}

TEST(FieldMatch, IntersectDisjointPrefixes) {
  auto a = FieldMatch::DstIp(Pfx("10.0.0.0/8"));
  auto b = FieldMatch::DstIp(Pfx("11.0.0.0/8"));
  EXPECT_FALSE(a.Intersect(b));
}

TEST(FieldMatch, IntersectWithWildcardIsIdentity) {
  auto a = FieldMatch::DstPort(80).WithProto(kProtoTcp);
  auto i = a.Intersect(FieldMatch());
  ASSERT_TRUE(i);
  EXPECT_EQ(*i, a);
}

TEST(FieldMatch, SubsetSemantics) {
  auto narrow = FieldMatch::DstPort(80).WithInPort(1);
  auto wide = FieldMatch::DstPort(80);
  EXPECT_TRUE(narrow.IsSubsetOf(wide));
  EXPECT_FALSE(wide.IsSubsetOf(narrow));
  EXPECT_TRUE(narrow.IsSubsetOf(FieldMatch()));
  EXPECT_TRUE(narrow.IsSubsetOf(narrow));

  auto sub_prefix = FieldMatch::DstIp(Pfx("10.1.0.0/16"));
  auto super_prefix = FieldMatch::DstIp(Pfx("10.0.0.0/8"));
  EXPECT_TRUE(sub_prefix.IsSubsetOf(super_prefix));
  EXPECT_FALSE(super_prefix.IsSubsetOf(sub_prefix));
}

TEST(FieldMatch, ClearFieldAndConstrains) {
  auto m = FieldMatch::DstPort(80).WithSrcIp(Pfx("10.0.0.0/8"));
  EXPECT_TRUE(m.Constrains(Field::kDstPort));
  EXPECT_TRUE(m.Constrains(Field::kSrcIp));
  EXPECT_FALSE(m.Constrains(Field::kDstIp));
  m.ClearField(Field::kDstPort);
  EXPECT_FALSE(m.Constrains(Field::kDstPort));
  EXPECT_EQ(m.ConstrainedFieldCount(), 1);
}

TEST(FieldMatch, HashEqualityConsistency) {
  auto a = FieldMatch::DstPort(80).WithInPort(3);
  auto b = FieldMatch::DstPort(80).WithInPort(3);
  auto c = FieldMatch::DstPort(81).WithInPort(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(HashValue(a), HashValue(b));
  EXPECT_NE(a, c);
}

TEST(FieldMatch, ToStringListsFields) {
  auto m = FieldMatch::DstPort(80).WithSrcIp(Pfx("10.0.0.0/8"));
  EXPECT_EQ(m.ToString(), "src_ip=10.0.0.0/8, dst_port=80");
  EXPECT_EQ(FieldMatch().ToString(), "*");
}

// Property: intersection is the set-theoretic conjunction — a random packet
// matches the intersection iff it matches both operands.
TEST(FieldMatchProperty, IntersectionAgreesWithConjunction) {
  std::mt19937 rng(42);
  auto random_match = [&]() {
    FieldMatch m;
    if (rng() % 3 == 0) m.WithInPort(rng() % 4);
    if (rng() % 3 == 0) m.WithProto(rng() % 2 ? kProtoTcp : kProtoUdp);
    if (rng() % 3 == 0) m.WithDstPort(rng() % 2 ? 80 : 443);
    if (rng() % 3 == 0) {
      m.WithDstIp(IPv4Prefix(IPv4Address(static_cast<std::uint32_t>(rng())),
                             static_cast<std::uint8_t>(rng() % 25)));
    }
    if (rng() % 3 == 0) {
      m.WithSrcIp(IPv4Prefix(IPv4Address(static_cast<std::uint32_t>(rng())),
                             static_cast<std::uint8_t>(rng() % 25)));
    }
    return m;
  };
  auto random_packet = [&]() {
    PacketHeader h;
    h.in_port = rng() % 4;
    h.src_ip = IPv4Address(static_cast<std::uint32_t>(rng()));
    h.dst_ip = IPv4Address(static_cast<std::uint32_t>(rng()));
    h.proto = rng() % 2 ? kProtoTcp : kProtoUdp;
    h.src_port = static_cast<std::uint16_t>(rng());
    h.dst_port = rng() % 2 ? 80 : 443;
    return h;
  };

  for (int trial = 0; trial < 2000; ++trial) {
    FieldMatch a = random_match();
    FieldMatch b = random_match();
    auto intersection = a.Intersect(b);
    PacketHeader p = random_packet();
    const bool both = a.Matches(p) && b.Matches(p);
    const bool via_intersection = intersection && intersection->Matches(p);
    EXPECT_EQ(both, via_intersection)
        << "a=" << a << " b=" << b << " p=" << p;
  }
}

// Property: IsSubsetOf is sound — if a ⊆ b then any packet matching a
// matches b.
TEST(FieldMatchProperty, SubsetSoundness) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    FieldMatch a;
    if (rng() % 2) a.WithInPort(rng() % 3);
    if (rng() % 2) a.WithDstPort(rng() % 2 ? 80 : 443);
    if (rng() % 2) {
      a.WithDstIp(IPv4Prefix(IPv4Address(static_cast<std::uint32_t>(rng())),
                             static_cast<std::uint8_t>(8 + rng() % 17)));
    }
    FieldMatch b = a;
    // Weaken b by removing a random constrained field, making a ⊆ b.
    if (b.Constrains(Field::kDstIp) && rng() % 2) b.ClearField(Field::kDstIp);
    if (b.Constrains(Field::kDstPort) && rng() % 2) {
      b.ClearField(Field::kDstPort);
    }
    EXPECT_TRUE(a.IsSubsetOf(b)) << "a=" << a << " b=" << b;

    PacketHeader p;
    p.in_port = rng() % 3;
    p.dst_ip = IPv4Address(static_cast<std::uint32_t>(rng()));
    p.dst_port = rng() % 2 ? 80 : 443;
    if (a.Matches(p)) {
      EXPECT_TRUE(b.Matches(p));
    }
  }
}

}  // namespace
}  // namespace sdx::net
