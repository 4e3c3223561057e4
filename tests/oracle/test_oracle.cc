// Tier-1 equivalence-oracle tests: the parallel and incremental FullCompile
// paths must be packet-for-packet identical to a sequential from-scratch
// compile, across policy edits, BGP churn, and FEC/VNH regrouping. Every
// comparison is seeded; a failing oracle prints the seed to replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

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

constexpr std::uint64_t kSeed = 0x5d1c0ffee0ddba11ull;

RuntimeOptions Sequential() {
  RuntimeOptions options;
  options.compile.incremental = false;
  options.compile.threads = 1;
  return options;
}

RuntimeOptions Parallel(int threads = 4) {
  RuntimeOptions options;
  options.compile.incremental = false;
  options.compile.threads = threads;
  return options;
}

RuntimeOptions Incremental(int threads = 4) {
  RuntimeOptions options;
  options.compile.incremental = true;
  options.compile.threads = threads;
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

// A minimal single-participant edit: change the first clause's match
// predicate (to one the packet sampler hits often) while keeping its
// target and destination restrictions, so the FEC partition is unchanged
// and only the edited sender's blocks should recompile. Returns the
// edited AS.
bgp::AsNumber EditOnePolicy(SdxRuntime& runtime, const Fixture& fixture) {
  for (const auto& [as, clauses] : fixture.policies.outbound) {
    if (clauses.empty()) continue;
    auto edited = clauses;
    edited.front().match = policy::Predicate::SrcIp(
        net::IPv4Prefix(net::IPv4Address(0x80000000u), 1));
    runtime.SetOutboundPolicy(as, edited);
    return as;
  }
  ADD_FAILURE() << "fixture has no editable outbound policy";
  return 0;
}

TEST(Oracle, ParallelMatchesSequential) {
  const Fixture fixture = MakeFixture(40, 600, kSeed);
  auto seq = BuildRuntime(fixture.scenario, fixture.policies, Sequential());
  auto par = BuildRuntime(fixture.scenario, fixture.policies, Parallel());
  const OracleResult result = ComparePacketBehavior(
      *seq, *par, fixture.scenario, workload::DeriveSeed(kSeed, 2), 500);
  EXPECT_TRUE(result.equivalent) << result.report;
  EXPECT_EQ(result.packets_checked, 500u);
}

TEST(Oracle, IncrementalAfterPolicyEditMatchesSequential) {
  const Fixture fixture = MakeFixture(40, 600, kSeed + 1);
  auto seq = BuildRuntime(fixture.scenario, fixture.policies, Sequential());
  auto inc = BuildRuntime(fixture.scenario, fixture.policies, Incremental());

  const bgp::AsNumber edited = EditOnePolicy(*seq, fixture);
  ASSERT_EQ(edited, EditOnePolicy(*inc, fixture));
  seq->FullCompile();
  const core::CompileStats stats = inc->FullCompile();
  EXPECT_TRUE(stats.incremental);
  EXPECT_GT(stats.blocks_reused, 0u);
  EXPECT_GT(stats.blocks_recompiled, 0u);
  EXPECT_EQ(stats.blocks_total, stats.blocks_reused + stats.blocks_recompiled);

  const OracleResult result = ComparePacketBehavior(
      *seq, *inc, fixture.scenario, workload::DeriveSeed(kSeed, 3), 500);
  EXPECT_TRUE(result.equivalent) << result.report;
}

TEST(Oracle, IncrementalAfterBgpChurnMatchesSequential) {
  const Fixture fixture = MakeFixture(40, 600, kSeed + 2);
  auto inc = BuildRuntime(fixture.scenario, fixture.policies, Incremental());

  auto update_params =
      workload::UpdateStreamParams::Small(600, 200, kSeed + 3);
  update_params.duration_seconds = 1e12;
  const auto stream =
      workload::UpdateGenerator(update_params).GenerateFor(fixture.scenario);
  ASSERT_FALSE(stream.updates.empty());

  // Reference: same history into a sequential runtime, compiled from
  // scratch at the end.
  auto seq = BuildRuntime(fixture.scenario, fixture.policies, Sequential());
  for (const auto& update : stream.updates) {
    inc->ApplyUpdates({&update, 1});
    seq->ApplyUpdates({&update, 1});
  }
  seq->FullCompile();
  const core::CompileStats stats = inc->FullCompile();
  EXPECT_TRUE(stats.incremental);

  const OracleResult result = ComparePacketBehavior(
      *seq, *inc, fixture.scenario, workload::DeriveSeed(kSeed, 4), 500);
  EXPECT_TRUE(result.equivalent) << result.report;
}

// Announcing a fresh prefix changes the FEC grouping and allocates a new
// VNH; the incremental compile must fold it in rather than reuse stale
// groups (the regression the block fingerprints guard against).
TEST(Oracle, IncrementalAfterFecVnhChangeMatchesSequential) {
  const Fixture fixture = MakeFixture(40, 600, kSeed + 4);
  auto seq = BuildRuntime(fixture.scenario, fixture.policies, Sequential());
  auto inc = BuildRuntime(fixture.scenario, fixture.policies, Incremental());

  // A prefix far outside the generator's universe, announced by the
  // biggest announcer so coverage clauses pick it up.
  const auto announcer =
      std::max_element(fixture.scenario.members.begin(),
                       fixture.scenario.members.end(),
                       [](const auto& a, const auto& b) {
                         return a.announced.size() < b.announced.size();
                       })
          ->as;
  const net::IPv4Prefix fresh(net::IPv4Address(203, 0, 113, 0), 24);
  seq->AnnouncePrefix(announcer, fresh);
  inc->AnnouncePrefix(announcer, fresh);
  seq->FullCompile();
  const core::CompileStats stats = inc->FullCompile();
  EXPECT_TRUE(stats.incremental);

  workload::IxpScenario probe_universe = fixture.scenario;
  probe_universe.prefixes.push_back(fresh);
  const OracleResult result = ComparePacketBehavior(
      *seq, *inc, probe_universe, workload::DeriveSeed(kSeed, 5), 500);
  EXPECT_TRUE(result.equivalent) << result.report;
}

// Hand-built Figure-1-style check that a memoized compiled block
// (BlockMemo) never survives a policy edit: after retargeting the web
// clause the packet must follow the new policy, and the incremental compile
// must agree with a sequential rebuild of the same state.
TEST(Oracle, CachedClassifierNeverSurvivesPolicyEdit) {
  constexpr bgp::AsNumber kA = 100, kB = 200, kC = 300;
  const net::IPv4Prefix p(net::IPv4Address(10, 1, 0, 0), 16);

  auto build = [&](const RuntimeOptions& options) {
    auto runtime = std::make_unique<SdxRuntime>();
    runtime->Configure(options);
    runtime->AddParticipant(kA, 1);
    runtime->AddParticipant(kB, 1);
    runtime->AddParticipant(kC, 1);
    runtime->AnnouncePrefix(kB, p, {kB, 900});
    runtime->AnnouncePrefix(kC, p, {kC});  // C is best (shorter path)
    core::OutboundClause web;
    web.match = policy::Predicate::DstPort(80);
    web.to = kB;
    runtime->SetOutboundPolicy(kA, {web});
    runtime->FullCompile();
    return runtime;
  };

  auto inc = build(Incremental());
  auto seq = build(Sequential());

  net::Packet web_packet;
  web_packet.header.src_ip = net::IPv4Address(10, 99, 0, 1);
  web_packet.header.dst_ip = net::IPv4Address(10, 1, 1, 1);
  web_packet.header.proto = net::kProtoTcp;
  web_packet.header.dst_port = 80;
  web_packet.size_bytes = 100;

  const net::PortId port_b = inc->topology().PhysicalPortOf(kB, 0).id;
  const net::PortId port_c = inc->topology().PhysicalPortOf(kC, 0).id;
  auto out = inc->InjectFromParticipant(kA, web_packet);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].out_port, port_b);

  // Retarget the clause to C; the old compiled block must not be reused.
  core::OutboundClause web_to_c;
  web_to_c.match = policy::Predicate::DstPort(80);
  web_to_c.to = kC;
  inc->SetOutboundPolicy(kA, {web_to_c});
  seq->SetOutboundPolicy(kA, {web_to_c});
  const core::CompileStats stats = inc->FullCompile();
  EXPECT_TRUE(stats.incremental);
  seq->FullCompile();

  out = inc->InjectFromParticipant(kA, web_packet);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].out_port, port_c);

  workload::IxpScenario universe;
  universe.members.push_back({kA, 1, workload::Category::kEyeball, {}});
  universe.members.push_back({kB, 1, workload::Category::kTransit, {p}});
  universe.members.push_back({kC, 1, workload::Category::kContent, {p}});
  universe.prefixes.push_back(p);
  const OracleResult result = ComparePacketBehavior(
      *seq, *inc, universe, workload::DeriveSeed(kSeed, 6), 300);
  EXPECT_TRUE(result.equivalent) << result.report;
}

// The sampler is deterministic in its seed, and an oracle failure report
// names the seed, so any mismatch replays exactly.
TEST(Oracle, ReplaysFromPrintedSeed) {
  const Fixture fixture = MakeFixture(30, 400, kSeed + 5);
  workload::PacketSampler a(fixture.scenario, 1234);
  workload::PacketSampler b(fixture.scenario, 1234);
  for (int i = 0; i < 200; ++i) {
    const auto pa = a.Next();
    const auto pb = b.Next();
    EXPECT_EQ(pa.from, pb.from);
    EXPECT_EQ(pa.header, pb.header);
  }
  workload::PacketSampler c(fixture.scenario, 1235);
  bool diverged = false;
  workload::PacketSampler a2(fixture.scenario, 1234);
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = !(a2.Next().header == c.Next().header);
  }
  EXPECT_TRUE(diverged);

  // Force a mismatch: one runtime carries an extra inbound rewrite on the
  // biggest announcer, so delivered headers differ.
  auto lhs = BuildRuntime(fixture.scenario, fixture.policies, Sequential());
  auto rhs = BuildRuntime(fixture.scenario, fixture.policies, Sequential());
  const auto victim =
      std::max_element(fixture.scenario.members.begin(),
                       fixture.scenario.members.end(),
                       [](const auto& a, const auto& b) {
                         return a.announced.size() < b.announced.size();
                       })
          ->as;
  core::InboundClause rewrite;
  rewrite.rewrites.SetDstIp(net::IPv4Address(192, 0, 2, 1));
  rhs->SetInboundPolicy(victim, {rewrite});
  rhs->FullCompile();

  const std::uint64_t seed = 4242;
  const OracleResult result =
      ComparePacketBehavior(*lhs, *rhs, fixture.scenario, seed, 500);
  ASSERT_FALSE(result.equivalent);
  EXPECT_EQ(result.seed, seed);
  EXPECT_NE(result.report.find("4242"), std::string::npos) << result.report;

  // Replaying with the printed seed reproduces the identical verdict.
  const OracleResult replay =
      ComparePacketBehavior(*lhs, *rhs, fixture.scenario, result.seed, 500);
  EXPECT_EQ(replay.mismatches, result.mismatches);
  EXPECT_EQ(replay.report, result.report);
}

}  // namespace
}  // namespace sdx::oracle
