// Encoding oracle gate: the iSDX-style encoded-VMAC compile (masked
// clause + next-hop rules, per-sender ARP answers — sdx/reach.h) must be
// packet-for-packet identical to the legacy per-group compile, across full
// compiles, per-participant parallel compilation units, fast-path churn,
// batched ingest, overflow policies (> kEncodedClauseBits clauses), and
// encoding-mode flips on a live runtime. Every comparison is seeded; a
// failing oracle prints the sampler seed to replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "oracle.h"
#include "workload/policy_gen.h"
#include "workload/seed.h"
#include "workload/topology_gen.h"
#include "workload/traffic_gen.h"
#include "workload/update_gen.h"

namespace sdx::oracle {
namespace {

using core::RuntimeOptions;
using core::SdxRuntime;
using core::VmacEncoding;

constexpr std::uint64_t kSeed = 0xc0dedfacade5117ull;

RuntimeOptions WithEncoding(VmacEncoding encoding, bool parallel = true) {
  RuntimeOptions options;
  options.compile.incremental = true;
  options.compile.threads = parallel ? 4 : 1;
  options.vmac_encoding = encoding;
  return options;
}

struct Fixture {
  workload::IxpScenario scenario;
  workload::GeneratedPolicies policies;
};

Fixture MakeFixture(int participants, int prefixes, std::uint64_t seed) {
  Fixture fixture;
  workload::TopologyParams topo;
  topo.participants = participants;
  topo.total_prefixes = prefixes;
  topo.seed = seed;
  fixture.scenario = workload::TopologyGenerator(topo).Generate();
  workload::PolicyParams policy_params;
  policy_params.seed = workload::DeriveSeed(seed, 1);
  policy_params.coverage_fanout = participants / 2;
  fixture.policies =
      workload::PolicyGenerator(policy_params).Generate(fixture.scenario);
  return fixture;
}

TEST(OracleEncoding, EncodedMatchesLegacyFullCompile) {
  const Fixture fixture = MakeFixture(40, 600, kSeed);
  auto legacy = BuildRuntime(fixture.scenario, fixture.policies,
                             WithEncoding(VmacEncoding::kLegacy));
  auto encoded = BuildRuntime(fixture.scenario, fixture.policies,
                              WithEncoding(VmacEncoding::kEncoded));
  EXPECT_FALSE(legacy->encoded_vmacs_active());
  EXPECT_TRUE(encoded->encoded_vmacs_active());
  EXPECT_GT(encoded->arp().encoded_size(), 0u);

  const OracleResult result = ComparePacketBehavior(
      *legacy, *encoded, fixture.scenario, workload::DeriveSeed(kSeed, 2),
      500);
  EXPECT_TRUE(result.equivalent) << result.report;
  EXPECT_EQ(result.packets_checked, 500u);
}

// The per-participant compilation units must merge deterministically: the
// pooled encoded compile is packet-identical to the sequential one and
// installs exactly the same number of rules.
TEST(OracleEncoding, ParallelUnitsMatchSequentialEncoded) {
  const Fixture fixture = MakeFixture(40, 600, kSeed + 1);
  auto seq = BuildRuntime(fixture.scenario, fixture.policies,
                          WithEncoding(VmacEncoding::kEncoded, false));
  auto par = BuildRuntime(fixture.scenario, fixture.policies,
                          WithEncoding(VmacEncoding::kEncoded, true));

  const core::CompileStats seq_stats = seq->FullCompile();
  const core::CompileStats par_stats = par->FullCompile();
  EXPECT_EQ(seq_stats.flow_rule_count, par_stats.flow_rule_count);
  EXPECT_EQ(seq_stats.override_rule_count, par_stats.override_rule_count);
  EXPECT_EQ(seq_stats.default_rule_count, par_stats.default_rule_count);

  const OracleResult result = ComparePacketBehavior(
      *seq, *par, fixture.scenario, workload::DeriveSeed(kSeed, 3), 500);
  EXPECT_TRUE(result.equivalent) << result.report;
}

// The point of the encoding (Fig. 7): masked per-clause rules replace
// per-group rules, so the encoded table is strictly smaller once groups
// outnumber clauses.
TEST(OracleEncoding, EncodedInstallsFewerRules) {
  const Fixture fixture = MakeFixture(60, 1200, kSeed + 2);
  auto legacy = BuildRuntime(fixture.scenario, fixture.policies,
                             WithEncoding(VmacEncoding::kLegacy));
  auto encoded = BuildRuntime(fixture.scenario, fixture.policies,
                              WithEncoding(VmacEncoding::kEncoded));
  const core::CompileStats legacy_stats = legacy->FullCompile();
  const core::CompileStats encoded_stats = encoded->FullCompile();
  EXPECT_LT(encoded_stats.flow_rule_count, legacy_stats.flow_rule_count);
}

TEST(OracleEncoding, FastPathChurnMatchesLegacy) {
  const Fixture fixture = MakeFixture(40, 600, kSeed + 3);
  auto legacy = BuildRuntime(fixture.scenario, fixture.policies,
                             WithEncoding(VmacEncoding::kLegacy));
  auto encoded = BuildRuntime(fixture.scenario, fixture.policies,
                              WithEncoding(VmacEncoding::kEncoded));

  auto update_params =
      workload::UpdateStreamParams::Small(600, 150, kSeed + 4);
  update_params.duration_seconds = 1e12;
  const auto stream =
      workload::UpdateGenerator(update_params).GenerateFor(fixture.scenario);
  ASSERT_FALSE(stream.updates.empty());
  for (const auto& update : stream.updates) {
    legacy->ApplyUpdates({&update, 1});
    encoded->ApplyUpdates({&update, 1});
  }

  // Fast-path state only: encoded slices carry (almost) no rules — new
  // groups ride the pre-installed masked rules via their ARP answers.
  const OracleResult fast = ComparePacketBehavior(
      *legacy, *encoded, fixture.scenario, workload::DeriveSeed(kSeed, 5),
      500);
  EXPECT_TRUE(fast.equivalent) << fast.report;

  // And after the background pass folds the singletons back in.
  legacy->FullCompile();
  encoded->FullCompile();
  const OracleResult full = ComparePacketBehavior(
      *legacy, *encoded, fixture.scenario, workload::DeriveSeed(kSeed, 6),
      500);
  EXPECT_TRUE(full.equivalent) << full.report;
}

TEST(OracleEncoding, BatchedIngestMatchesLegacy) {
  const Fixture fixture = MakeFixture(40, 600, kSeed + 7);
  auto legacy = BuildRuntime(fixture.scenario, fixture.policies,
                             WithEncoding(VmacEncoding::kLegacy));
  auto encoded = BuildRuntime(fixture.scenario, fixture.policies,
                              WithEncoding(VmacEncoding::kEncoded));

  auto update_params =
      workload::UpdateStreamParams::Small(600, 150, kSeed + 8);
  update_params.duration_seconds = 1e12;
  const auto stream =
      workload::UpdateGenerator(update_params).GenerateFor(fixture.scenario);
  ASSERT_FALSE(stream.updates.empty());
  legacy->ApplyUpdates(stream.updates);
  encoded->ApplyUpdates(stream.updates);

  const OracleResult result = ComparePacketBehavior(
      *legacy, *encoded, fixture.scenario, workload::DeriveSeed(kSeed, 9),
      500);
  EXPECT_TRUE(result.equivalent) << result.report;
}

// Hand-built scenario where one sender has more outbound clauses than the
// VMAC has clause bits: that sender must fall back to legacy per-group
// rules (and legacy ARP answers) while everyone else stays encoded, with
// no behavioral difference either way.
TEST(OracleEncoding, OverflowSenderFallsBackSoundly) {
  constexpr int kTargets = 7;
  constexpr int kClauses = core::kEncodedClauseBits + 6;
  const std::uint16_t kPorts[] = {80, 443, 8080, 1935, 22};

  workload::IxpScenario scenario;
  workload::Member sender;
  sender.as = 100;
  sender.ports = 1;
  scenario.members.push_back(sender);
  for (int t = 0; t < kTargets; ++t) {
    workload::Member member;
    member.as = 101 + t;
    member.ports = 1;
    for (int p = 0; p < 4; ++p) {
      member.announced.push_back(
          workload::TopologyGenerator::PrefixNumber(t * 4 + p));
    }
    scenario.members.push_back(member);
    scenario.prefixes.insert(scenario.prefixes.end(),
                             member.announced.begin(),
                             member.announced.end());
  }

  workload::GeneratedPolicies policies;
  std::vector<core::OutboundClause> overflow;
  for (int i = 0; i < kClauses; ++i) {
    core::OutboundClause clause;
    clause.match = policy::Predicate::DstPort(kPorts[i % 5]);
    const workload::Member& target = scenario.members[1 + (i % kTargets)];
    clause.to = target.as;
    // Distinct per-clause destination subsets keep the clauses from
    // shadowing each other outright and create distinct behavior sets.
    clause.dst_prefixes = {target.announced[i % target.announced.size()]};
    overflow.push_back(clause);
  }
  policies.outbound[100] = overflow;
  // A well-behaved encoded sender next to the overflow one, so both rule
  // shapes coexist in one fabric.
  core::OutboundClause simple;
  simple.match = policy::Predicate::DstPort(443);
  simple.to = 103;
  policies.outbound[101] = {simple};

  auto legacy = BuildRuntime(scenario, policies,
                             WithEncoding(VmacEncoding::kLegacy));
  auto encoded = BuildRuntime(scenario, policies,
                              WithEncoding(VmacEncoding::kEncoded));
  EXPECT_TRUE(encoded->encoded_vmacs_active());

  const OracleResult result = ComparePacketBehavior(
      *legacy, *encoded, scenario, workload::DeriveSeed(kSeed, 10), 600);
  EXPECT_TRUE(result.equivalent) << result.report;
}

// Flipping the encoding on a live runtime must rebind every group's ARP
// answer and recompile into the other rule shape, staying equivalent to a
// never-flipped reference in both directions.
TEST(OracleEncoding, ModeFlipRebindsCleanly) {
  const Fixture fixture = MakeFixture(25, 400, kSeed + 11);
  auto reference = BuildRuntime(fixture.scenario, fixture.policies,
                                WithEncoding(VmacEncoding::kLegacy));
  auto subject = BuildRuntime(fixture.scenario, fixture.policies,
                              WithEncoding(VmacEncoding::kLegacy));

  RuntimeOptions options = subject->runtime_options();
  options.vmac_encoding = VmacEncoding::kEncoded;
  subject->Configure(options);
  subject->FullCompile();
  ASSERT_TRUE(subject->encoded_vmacs_active());
  const OracleResult to_encoded = ComparePacketBehavior(
      *reference, *subject, fixture.scenario, workload::DeriveSeed(kSeed, 12),
      400);
  EXPECT_TRUE(to_encoded.equivalent) << to_encoded.report;

  options.vmac_encoding = VmacEncoding::kLegacy;
  subject->Configure(options);
  subject->FullCompile();
  ASSERT_FALSE(subject->encoded_vmacs_active());
  EXPECT_EQ(subject->arp().encoded_size(), 0u);
  const OracleResult back = ComparePacketBehavior(
      *reference, *subject, fixture.scenario, workload::DeriveSeed(kSeed, 13),
      400);
  EXPECT_TRUE(back.equivalent) << back.report;
}

// Light seeded sweep (the deep one lives in the slow lane with the fuzz
// oracle): several scenario seeds, full-compile equivalence each.
TEST(OracleEncoding, SeededSweep) {
  for (std::uint64_t round = 0; round < 3; ++round) {
    const std::uint64_t seed = workload::DeriveSeed(kSeed, 20 + round);
    const Fixture fixture = MakeFixture(30, 450, seed);
    auto legacy = BuildRuntime(fixture.scenario, fixture.policies,
                               WithEncoding(VmacEncoding::kLegacy));
    auto encoded = BuildRuntime(fixture.scenario, fixture.policies,
                                WithEncoding(VmacEncoding::kEncoded));
    const OracleResult result = ComparePacketBehavior(
        *legacy, *encoded, fixture.scenario, workload::DeriveSeed(seed, 1),
        200);
    EXPECT_TRUE(result.equivalent)
        << "scenario seed " << seed << "\n" << result.report;
  }
}

}  // namespace
}  // namespace sdx::oracle
