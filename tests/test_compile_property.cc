// Differential property tests: the compiled classifier must agree with the
// direct AST interpreter on random policies and random packets (DESIGN.md
// invariant 5). This is the strongest correctness check on the compiler —
// any bug in composition, pull-back, or negation shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "policy/compile.h"

namespace sdx::policy {
namespace {

using dataplane::Rewrites;
using net::IPv4Address;
using net::IPv4Prefix;
using net::PacketHeader;

class RandomPolicyGen {
 public:
  explicit RandomPolicyGen(std::uint32_t seed) : rng_(seed) {}

  Predicate RandomPredicate(int depth) {
    if (depth <= 0 || rng_() % 3 == 0) return RandomLeafPredicate();
    switch (rng_() % 3) {
      case 0:
        return RandomPredicate(depth - 1) && RandomPredicate(depth - 1);
      case 1:
        return RandomPredicate(depth - 1) || RandomPredicate(depth - 1);
      default:
        return !RandomPredicate(depth - 1);
    }
  }

  Policy RandomPolicy(int depth) {
    if (depth <= 0 || rng_() % 4 == 0) return RandomLeafPolicy();
    switch (rng_() % 3) {
      case 0:
        return RandomPolicy(depth - 1) + RandomPolicy(depth - 1);
      case 1:
        return RandomPolicy(depth - 1) >> RandomPolicy(depth - 1);
      default:
        return Policy::If(RandomPredicate(depth - 1), RandomPolicy(depth - 1),
                          RandomPolicy(depth - 1));
    }
  }

  PacketHeader RandomPacket() {
    PacketHeader h;
    h.in_port = rng_() % kPorts;
    h.src_mac = net::MacAddress(rng_() % 4);
    h.dst_mac = net::MacAddress(rng_() % 4);
    h.src_ip = IPv4Address(RandomAddressValue());
    h.dst_ip = IPv4Address(RandomAddressValue());
    h.proto = rng_() % 2 ? net::kProtoTcp : net::kProtoUdp;
    h.src_port = static_cast<std::uint16_t>(rng_() % 3);
    h.dst_port = RandomPort();
    return h;
  }

 private:
  static constexpr int kPorts = 5;

  // Addresses drawn from a few /8s so prefix matches hit often.
  std::uint32_t RandomAddressValue() {
    const std::uint32_t nets[] = {10u << 24, 20u << 24, 74u << 24};
    return nets[rng_() % 3] | (rng_() & 0x00FFFFFFu);
  }

  std::uint16_t RandomPort() {
    const std::uint16_t ports[] = {80, 443, 22, 8080};
    return ports[rng_() % 4];
  }

  IPv4Prefix RandomPrefix() {
    const std::uint8_t lengths[] = {0, 1, 8, 16, 24, 32};
    return IPv4Prefix(IPv4Address(RandomAddressValue()),
                      lengths[rng_() % 6]);
  }

  Predicate RandomLeafPredicate() {
    switch (rng_() % 6) {
      case 0:
        return Predicate::InPort(rng_() % kPorts);
      case 1:
        return Predicate::DstPort(RandomPort());
      case 2:
        return Predicate::SrcIp(RandomPrefix());
      case 3:
        return Predicate::DstIp(RandomPrefix());
      case 4:
        return Predicate::Proto(rng_() % 2 ? net::kProtoTcp : net::kProtoUdp);
      default:
        return rng_() % 2 ? Predicate::True() : Predicate::False();
    }
  }

  Policy RandomLeafPolicy() {
    switch (rng_() % 5) {
      case 0:
        return Policy::Drop();
      case 1:
        return Policy::Identity();
      case 2:
        return Policy::Fwd(rng_() % kPorts);
      case 3:
        return Policy::Filter(RandomLeafPredicate());
      default: {
        Rewrites r;
        if (rng_() % 2) r.SetDstPort(RandomPort());
        if (rng_() % 2) r.SetDstIp(IPv4Address(RandomAddressValue()));
        if (rng_() % 3 == 0) r.SetSrcIp(IPv4Address(RandomAddressValue()));
        if (rng_() % 3 == 0) r.SetDstMac(net::MacAddress(rng_() % 4));
        return Policy::Mod(r);
      }
    }
  }

  std::mt19937 rng_;
};

// Sorts packet sets for order-insensitive comparison (parallel composition
// order is unspecified).
std::vector<PacketHeader> Normalize(std::vector<PacketHeader> packets) {
  std::sort(packets.begin(), packets.end(),
            [](const PacketHeader& a, const PacketHeader& b) {
              return a.ToString() < b.ToString();
            });
  return packets;
}

struct SweepParams {
  std::uint32_t seed;
  int policy_depth;
};

class CompileDifferential : public ::testing::TestWithParam<SweepParams> {};

TEST_P(CompileDifferential, ClassifierAgreesWithInterpreter) {
  const auto [seed, depth] = GetParam();
  RandomPolicyGen gen(seed);
  for (int round = 0; round < 30; ++round) {
    Policy policy = gen.RandomPolicy(depth);
    Classifier compiled = Compile(policy);
    for (int trial = 0; trial < 40; ++trial) {
      PacketHeader packet = gen.RandomPacket();
      auto expected = Normalize(policy.Eval(packet));
      auto actual = Normalize(compiled.Eval(packet));
      ASSERT_EQ(expected, actual)
          << "policy: " << policy.ToString() << "\npacket: " << packet;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompileDifferential,
    ::testing::Values(SweepParams{1, 1}, SweepParams{2, 2}, SweepParams{3, 2},
                      SweepParams{4, 3}, SweepParams{5, 3}, SweepParams{6, 4},
                      SweepParams{7, 4}, SweepParams{8, 5}),
    [](const ::testing::TestParamInfo<SweepParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_depth" +
             std::to_string(info.param.policy_depth);
    });

// Algebraic laws of the policy language, checked semantically on random
// policies: +/>> associativity, >> distributing over + on both sides, and
// the identity/annihilator elements.
TEST(PolicyAlgebra, AssociativityAndDistributivity) {
  RandomPolicyGen gen(4242);
  for (int round = 0; round < 60; ++round) {
    Policy a = gen.RandomPolicy(2);
    Policy b = gen.RandomPolicy(2);
    Policy c = gen.RandomPolicy(2);
    struct LawCase {
      const char* name;
      Policy lhs;
      Policy rhs;
    };
    const LawCase laws[] = {
        {"+assoc", (a + b) + c, a + (b + c)},
        {">>assoc", (a >> b) >> c, a >> (b >> c)},
        {"left-dist", a >> (b + c), (a >> b) + (a >> c)},
        {"right-dist", (a + b) >> c, (a >> c) + (b >> c)},
        {"+comm", a + b, b + a},
        {"id-left", Policy::Identity() >> a, a},
        {"drop-right", a >> Policy::Drop(), Policy::Drop()},
    };
    for (const LawCase& law : laws) {
      for (int trial = 0; trial < 15; ++trial) {
        net::PacketHeader packet = gen.RandomPacket();
        ASSERT_EQ(Normalize(law.lhs.Eval(packet)),
                  Normalize(law.rhs.Eval(packet)))
            << law.name << "\na: " << a.ToString()
            << "\nb: " << b.ToString() << "\nc: " << c.ToString();
      }
    }
  }
}

// The compiled forms obey the same laws.
TEST(PolicyAlgebra, CompiledFormsAgreeAcrossAssociations) {
  RandomPolicyGen gen(777);
  for (int round = 0; round < 40; ++round) {
    Policy a = gen.RandomPolicy(2);
    Policy b = gen.RandomPolicy(2);
    Policy c = gen.RandomPolicy(2);
    Classifier left = Compile((a + b) + c);
    Classifier right = Compile(a + (b + c));
    Classifier seq_left = Compile((a >> b) >> c);
    Classifier seq_right = Compile(a >> (b >> c));
    for (int trial = 0; trial < 15; ++trial) {
      net::PacketHeader packet = gen.RandomPacket();
      ASSERT_EQ(Normalize(left.Eval(packet)), Normalize(right.Eval(packet)));
      ASSERT_EQ(Normalize(seq_left.Eval(packet)),
                Normalize(seq_right.Eval(packet)));
    }
  }
}

// --- Classifier-algebra edge cases (DESIGN.md §8 oracle satellite) -------

// Shadow elimination under negated predicates. Negation compiles into
// permit/drop rule pairs whose drop rules are broad, so sequential
// composition of negated filters is the easiest way to produce deeply
// shadowed tails. RemoveShadowed must shrink them without changing any
// packet's fate.
TEST(ClassifierEdgeCases, ShadowEliminationUnderNegatedPredicates) {
  RandomPolicyGen gen(31337);
  for (int round = 0; round < 40; ++round) {
    Predicate p = gen.RandomPredicate(2);
    Predicate q = gen.RandomPredicate(2);
    Policy policy = Policy::Filter(!p) >> Policy::Filter(!q);
    Classifier compiled = Compile(policy);
    Classifier optimized = compiled;
    optimized.RemoveShadowed();
    ASSERT_LE(optimized.size(), compiled.size());
    for (int trial = 0; trial < 25; ++trial) {
      PacketHeader packet = gen.RandomPacket();
      ASSERT_EQ(Normalize(policy.Eval(packet)),
                Normalize(optimized.Eval(packet)))
          << "p: " << p.ToString() << "\nq: " << q.ToString();
    }
  }

  // Double negation over a total filter: !(!False) passes everything, so
  // a sequentially composed narrow filter decides every packet and the
  // optimized classifier must stay equivalent to the narrow filter alone.
  Policy doubled =
      Policy::Filter(!!Predicate::True()) >>
      Policy::Filter(Predicate::DstPort(80));
  Classifier optimized = Compile(doubled);
  optimized.RemoveShadowed();
  Classifier narrow = Compile(Policy::Filter(Predicate::DstPort(80)));
  RandomPolicyGen probe(31338);
  for (int trial = 0; trial < 50; ++trial) {
    PacketHeader packet = probe.RandomPacket();
    ASSERT_EQ(Normalize(optimized.Eval(packet)),
              Normalize(narrow.Eval(packet)));
  }
}

// If() with overlapping branches: both branches are total (match every
// packet), so only the predicate may decide which branch acts — any leak
// of the untaken branch's rules shows up as a wrong or duplicated output.
TEST(ClassifierEdgeCases, IfWithOverlappingBranches) {
  RandomPolicyGen gen(60601);
  for (int round = 0; round < 40; ++round) {
    Predicate p = gen.RandomPredicate(2);
    Rewrites r;
    r.SetDstIp(IPv4Address(10, 0, 0, 1));
    // Both branches match everything and forward somewhere; the then-branch
    // also rewrites, so taking the wrong branch changes the output header,
    // not just the count.
    Policy then_branch = Policy::Mod(r) >> Policy::Fwd(1);
    Policy else_branch = Policy::Fwd(2);
    Policy policy = Policy::If(p, then_branch, else_branch);
    Classifier compiled = Compile(policy);
    for (int trial = 0; trial < 25; ++trial) {
      PacketHeader packet = gen.RandomPacket();
      const auto expected = Normalize(policy.Eval(packet));
      ASSERT_EQ(expected.size(), 1u) << p.ToString();
      ASSERT_EQ(expected, Normalize(compiled.Eval(packet)))
          << "predicate: " << p.ToString();
    }
  }

  // Branches that overlap *with the predicate* as well: then-branch
  // re-filters on the same predicate (redundant), else-branch filters on
  // it (contradictory — must drop).
  for (int round = 0; round < 40; ++round) {
    Predicate p = gen.RandomPredicate(2);
    Policy policy = Policy::If(p, Policy::Filter(p) >> Policy::Fwd(1),
                               Policy::Filter(p) >> Policy::Fwd(2));
    Classifier compiled = Compile(policy);
    for (int trial = 0; trial < 25; ++trial) {
      PacketHeader packet = gen.RandomPacket();
      ASSERT_EQ(Normalize(policy.Eval(packet)),
                Normalize(compiled.Eval(packet)))
          << "predicate: " << p.ToString();
    }
  }
}

// Empty and drop-only policies: every algebraic route to "drop everything"
// must compile to a classifier that emits nothing, and composing with such
// a policy must annihilate.
TEST(ClassifierEdgeCases, EmptyAndDropOnlyPolicies) {
  RandomPolicyGen gen(90210);
  const Policy drops[] = {
      Policy::Drop(),
      Policy::Filter(Predicate::False()),
      Policy::Filter(!Predicate::True()),
      Policy::Drop() + Policy::Drop(),
      Policy::Drop() >> gen.RandomPolicy(2),
      gen.RandomPolicy(2) >> Policy::Drop(),
      Policy::If(gen.RandomPredicate(2), Policy::Drop(), Policy::Drop()),
  };
  for (const Policy& policy : drops) {
    Classifier compiled = Compile(policy);
    for (int trial = 0; trial < 25; ++trial) {
      PacketHeader packet = gen.RandomPacket();
      ASSERT_TRUE(policy.Eval(packet).empty()) << policy.ToString();
      ASSERT_TRUE(compiled.Eval(packet).empty()) << policy.ToString();
    }
    // Structurally: no rule of a drop-only classifier carries actions.
    Classifier optimized = compiled;
    optimized.RemoveShadowed();
    for (const Rule& rule : optimized.rules()) {
      EXPECT_TRUE(rule.actions.empty()) << policy.ToString();
    }
  }

  // Mod with no rewrites is the identity, not a drop.
  Policy noop = Policy::Mod(Rewrites{});
  Classifier compiled = Compile(noop);
  for (int trial = 0; trial < 25; ++trial) {
    PacketHeader packet = gen.RandomPacket();
    ASSERT_EQ(Normalize(noop.Eval(packet)), Normalize(compiled.Eval(packet)));
    ASSERT_EQ(compiled.Eval(packet).size(), 1u);
  }
}

// RemoveShadowed must preserve semantics.
TEST(CompileDifferential, ShadowRemovalPreservesSemantics) {
  RandomPolicyGen gen(1234);
  for (int round = 0; round < 50; ++round) {
    Policy policy = gen.RandomPolicy(3);
    Classifier compiled = Compile(policy);
    Classifier optimized = compiled;
    optimized.RemoveShadowed();
    for (int trial = 0; trial < 20; ++trial) {
      net::PacketHeader packet = gen.RandomPacket();
      ASSERT_EQ(Normalize(compiled.Eval(packet)),
                Normalize(optimized.Eval(packet)))
          << policy.ToString();
    }
  }
}

}  // namespace
}  // namespace sdx::policy
