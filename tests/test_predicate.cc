#include "policy/predicate.h"

#include <gtest/gtest.h>

namespace sdx::policy {
namespace {

using net::FieldMatch;
using net::IPv4Prefix;
using net::PacketHeader;

IPv4Prefix Pfx(const char* text) { return *IPv4Prefix::Parse(text); }

PacketHeader WebPacket() {
  PacketHeader h;
  h.in_port = 1;
  h.dst_ip = net::IPv4Address(74, 125, 1, 1);
  h.src_ip = net::IPv4Address(10, 0, 0, 1);
  h.proto = net::kProtoTcp;
  h.dst_port = 80;
  return h;
}

TEST(Predicate, ConstantsEvaluate) {
  EXPECT_TRUE(Predicate::True().Eval(WebPacket()));
  EXPECT_FALSE(Predicate::False().Eval(WebPacket()));
}

TEST(Predicate, FieldTests) {
  EXPECT_TRUE(Predicate::DstPort(80).Eval(WebPacket()));
  EXPECT_FALSE(Predicate::DstPort(443).Eval(WebPacket()));
  EXPECT_TRUE(Predicate::SrcIp(Pfx("10.0.0.0/8")).Eval(WebPacket()));
  EXPECT_TRUE(Predicate::InPort(1).Eval(WebPacket()));
  EXPECT_FALSE(Predicate::InPort(2).Eval(WebPacket()));
}

TEST(Predicate, BooleanOperators) {
  auto p = Predicate::DstPort(80) && Predicate::InPort(1);
  EXPECT_TRUE(p.Eval(WebPacket()));
  p = Predicate::DstPort(443) || Predicate::InPort(1);
  EXPECT_TRUE(p.Eval(WebPacket()));
  p = !Predicate::DstPort(80);
  EXPECT_FALSE(p.Eval(WebPacket()));
  p = !(Predicate::DstPort(80) && Predicate::InPort(2));
  EXPECT_TRUE(p.Eval(WebPacket()));
}

TEST(Predicate, ConstantFolding) {
  EXPECT_EQ((Predicate::True() && Predicate::DstPort(80)).kind(),
            Predicate::Kind::kTest);
  EXPECT_EQ((Predicate::False() && Predicate::DstPort(80)).kind(),
            Predicate::Kind::kFalse);
  EXPECT_EQ((Predicate::True() || Predicate::DstPort(80)).kind(),
            Predicate::Kind::kTrue);
  EXPECT_EQ((Predicate::False() || Predicate::DstPort(80)).kind(),
            Predicate::Kind::kTest);
  EXPECT_EQ((!Predicate::True()).kind(), Predicate::Kind::kFalse);
  EXPECT_EQ((!!Predicate::DstPort(80)).kind(), Predicate::Kind::kTest);
}

TEST(Predicate, TestConjunctionFoldsToIntersection) {
  auto p = Predicate::DstPort(80) && Predicate::InPort(1);
  ASSERT_EQ(p.kind(), Predicate::Kind::kTest);
  EXPECT_EQ(p.test().ConstrainedFieldCount(), 2);

  auto conflict = Predicate::DstPort(80) && Predicate::DstPort(443);
  EXPECT_EQ(conflict.kind(), Predicate::Kind::kFalse);
}

TEST(Predicate, WildcardTestIsTrue) {
  EXPECT_EQ(Predicate::Test(FieldMatch()).kind(), Predicate::Kind::kTrue);
}

TEST(Predicate, AnyInPortMatchesAnyListedPort) {
  auto p = Predicate::AnyInPort({3, 5, 7});
  PacketHeader h;
  h.in_port = 5;
  EXPECT_TRUE(p.Eval(h));
  h.in_port = 4;
  EXPECT_FALSE(p.Eval(h));
  EXPECT_EQ(Predicate::AnyInPort({}).kind(), Predicate::Kind::kFalse);
}

TEST(Predicate, AnyDstIpMatchesAnyListedPrefix) {
  auto p = Predicate::AnyDstIp({Pfx("10.0.0.0/8"), Pfx("20.0.0.0/8")});
  PacketHeader h;
  h.dst_ip = net::IPv4Address(20, 1, 1, 1);
  EXPECT_TRUE(p.Eval(h));
  h.dst_ip = net::IPv4Address(30, 1, 1, 1);
  EXPECT_FALSE(p.Eval(h));
}

TEST(Predicate, StructuralSharingIdentity) {
  auto p = Predicate::DstPort(80);
  auto q = p;
  EXPECT_EQ(p, q);
  auto r = Predicate::DstPort(80);
  EXPECT_FALSE(p == r);  // separately constructed
}

TEST(Predicate, ToStringIsReadable) {
  auto p = Predicate::DstPort(80) || !Predicate::InPort(1);
  EXPECT_EQ(p.ToString(), "(match(dst_port=80) || !(match(in_port=1)))");
}

TEST(Predicate, ContainsNegation) {
  EXPECT_FALSE(Predicate::True().ContainsNegation());
  EXPECT_FALSE(Predicate::DstPort(80).ContainsNegation());
  EXPECT_FALSE(
      (Predicate::DstPort(80) || Predicate::InPort(1)).ContainsNegation());
  EXPECT_TRUE((!Predicate::DstPort(80)).ContainsNegation());
  EXPECT_TRUE((Predicate::InPort(1) && (Predicate::DstPort(80) ||
                                        !Predicate::SrcIp(Pfx("10.0.0.0/8"))))
                  .ContainsNegation());
  // Double negation folds away, so no Not node remains.
  EXPECT_FALSE((!!Predicate::DstPort(80)).ContainsNegation());
  // !True folds to False: also positive.
  EXPECT_FALSE((!Predicate::True()).ContainsNegation());
}

TEST(Predicate, DeMorganSemantics) {
  PacketHeader h = WebPacket();
  auto a = Predicate::DstPort(80);
  auto b = Predicate::InPort(2);
  EXPECT_EQ((!(a || b)).Eval(h), ((!a) && (!b)).Eval(h));
  EXPECT_EQ((!(a && b)).Eval(h), ((!a) || (!b)).Eval(h));
}

}  // namespace
}  // namespace sdx::policy
