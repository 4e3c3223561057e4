#include "policy/compile.h"

#include <gtest/gtest.h>

namespace sdx::policy {
namespace {

using dataplane::Rewrites;
using net::IPv4Address;
using net::IPv4Prefix;
using net::PacketHeader;

IPv4Prefix Pfx(const char* text) { return *IPv4Prefix::Parse(text); }

PacketHeader MakePacket(net::PortId in_port, std::uint16_t dst_port) {
  PacketHeader h;
  h.in_port = in_port;
  h.dst_port = dst_port;
  h.src_ip = IPv4Address(10, 0, 0, 1);
  h.dst_ip = IPv4Address(74, 125, 1, 1);
  return h;
}

TEST(Compile, LeafPolicies) {
  EXPECT_TRUE(Compile(Policy::Drop()).Eval(MakePacket(1, 80)).empty());
  EXPECT_EQ(Compile(Policy::Identity()).Eval(MakePacket(1, 80)).size(), 1u);
  EXPECT_EQ(Compile(Policy::Fwd(4)).Eval(MakePacket(1, 80))[0].in_port, 4u);
  Rewrites r;
  r.SetDstPort(443);
  EXPECT_EQ(Compile(Policy::Mod(r)).Eval(MakePacket(1, 80))[0].dst_port, 443);
}

TEST(Compile, FilterCompilesToPermitDrop) {
  auto c = Compile(Policy::Filter(Predicate::DstPort(80)));
  EXPECT_EQ(c.Eval(MakePacket(1, 80)).size(), 1u);
  EXPECT_TRUE(c.Eval(MakePacket(1, 443)).empty());
}

TEST(Compile, AndOrNotPredicates) {
  auto p = (Predicate::DstPort(80) && Predicate::InPort(1)) ||
           !Predicate::SrcIp(Pfx("10.0.0.0/8"));
  auto c = Compile(Policy::Filter(p));
  for (auto [port, dst_port] : {std::pair<net::PortId, std::uint16_t>{1, 80},
                                {2, 80},
                                {1, 443},
                                {2, 443}}) {
    PacketHeader h = MakePacket(port, dst_port);
    EXPECT_EQ(!c.Eval(h).empty(), p.Eval(h)) << port << ":" << dst_port;
  }
}

TEST(Compile, ApplicationSpecificPeeringExample) {
  // §3.1: AS A's outbound policy.
  auto policy = Policy::Guarded(Predicate::DstPort(80), Policy::Fwd(20)) +
                Policy::Guarded(Predicate::DstPort(443), Policy::Fwd(30));
  auto c = Compile(policy);
  EXPECT_EQ(c.Eval(MakePacket(1, 80))[0].in_port, 20u);
  EXPECT_EQ(c.Eval(MakePacket(1, 443))[0].in_port, 30u);
  EXPECT_TRUE(c.Eval(MakePacket(1, 22)).empty());
}

TEST(Compile, SequentialCrossProduct) {
  // A matches on dstport, B on srcip — the §4.2 "cross product" example.
  auto a = Policy::Guarded(Predicate::DstPort(80), Policy::Fwd(7));
  auto b =
      Policy::Guarded(Predicate::InPort(7),
                      Policy::Guarded(Predicate::SrcIp(Pfx("0.0.0.0/1")),
                                      Policy::Fwd(71)) +
                          Policy::Guarded(Predicate::SrcIp(Pfx("128.0.0.0/1")),
                                          Policy::Fwd(72)));
  auto c = Compile(a >> b);

  PacketHeader low = MakePacket(1, 80);
  low.src_ip = IPv4Address(10, 0, 0, 1);
  EXPECT_EQ(c.Eval(low)[0].in_port, 71u);

  PacketHeader high = MakePacket(1, 80);
  high.src_ip = IPv4Address(200, 0, 0, 1);
  EXPECT_EQ(c.Eval(high)[0].in_port, 72u);

  EXPECT_TRUE(c.Eval(MakePacket(1, 443)).empty());
}

TEST(Compile, IfPolicy) {
  auto policy =
      Policy::If(Predicate::DstPort(80), Policy::Fwd(2), Policy::Fwd(3));
  auto c = Compile(policy);
  EXPECT_EQ(c.Eval(MakePacket(1, 80))[0].in_port, 2u);
  EXPECT_EQ(c.Eval(MakePacket(1, 22))[0].in_port, 3u);
}

TEST(Compile, ModThenMatchOnRewrittenField) {
  // mod(dstport=8080) >> match(dstport=8080) >> fwd(9): the match is
  // satisfied by the rewrite regardless of the packet's original port.
  Rewrites r;
  r.SetDstPort(8080);
  auto policy = Policy::Mod(r) >>
                Policy::Guarded(Predicate::DstPort(8080), Policy::Fwd(9));
  auto c = Compile(policy);
  EXPECT_EQ(c.Eval(MakePacket(1, 80))[0].in_port, 9u);
  EXPECT_EQ(c.Eval(MakePacket(1, 443))[0].in_port, 9u);
}

TEST(Compile, ModThenConflictingMatchDrops) {
  Rewrites r;
  r.SetDstPort(8080);
  auto policy =
      Policy::Mod(r) >> Policy::Guarded(Predicate::DstPort(80), Policy::Fwd(9));
  auto c = Compile(policy);
  EXPECT_TRUE(c.Eval(MakePacket(1, 80)).empty());
}

}  // namespace
}  // namespace sdx::policy
