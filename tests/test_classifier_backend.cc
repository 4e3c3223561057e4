// The compiled (tuple-space-search) lookup backend must be observationally
// identical to the linear reference scan — same matched rule on every
// packet, same tie-break contract, across incremental installs, bulk
// merges, and removals. Seeded fuzz drives the equivalence; the version
// counter guarantees a stale compile is never consulted.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "dataplane/classifier.h"
#include "dataplane/flow_table.h"
#include "dataplane/switch.h"

namespace sdx::dataplane {
namespace {

using net::FieldMatch;
using net::PacketHeader;

FlowRule MakeRule(std::int32_t priority, FieldMatch match, net::PortId out,
                  Cookie cookie = kNoCookie) {
  FlowRule rule;
  rule.priority = priority;
  rule.match = std::move(match);
  rule.actions = {Action{{}, out}};
  rule.cookie = cookie;
  return rule;
}

PacketHeader PortPacket(std::uint16_t dst_port) {
  PacketHeader h;
  h.in_port = 1;
  h.dst_port = dst_port;
  return h;
}

// Index of `rule` in the table's vector (identity across two tables that
// hold identical rule vectors).
std::ptrdiff_t IndexOf(const FlowTable& table, const FlowRule* rule) {
  if (rule == nullptr) return -1;
  return rule - table.rules().data();
}

// --- Mask extraction (net/flowspace) ---------------------------------

TEST(MaskSignature, ProjectionEquivalentToMatches) {
  // The classifier's correctness hinge: for sig = MaskSignatureOf(m),
  // m.Matches(h) iff ProjectKey(m, sig) == ProjectKey(h, sig).
  std::mt19937 rng(7);
  std::vector<FieldMatch> matches;
  matches.push_back(FieldMatch());  // wildcard
  for (int i = 0; i < 64; ++i) {
    FieldMatch m;
    if (rng() % 2) m.WithInPort(rng() % 8);
    if (rng() % 2) m.WithDstPort(static_cast<std::uint16_t>(rng() % 100));
    if (rng() % 2) m.WithProto(rng() % 2 ? 6 : 17);
    if (rng() % 2) {
      m.WithDstIp(net::IPv4Prefix(
          net::IPv4Address(static_cast<std::uint32_t>(rng())),
          static_cast<std::uint8_t>(rng() % 33)));
    }
    if (rng() % 2) m.WithSrcMac(net::MacAddress(rng() % 1024));
    matches.push_back(m);
  }
  for (int i = 0; i < 2000; ++i) {
    PacketHeader h;
    h.in_port = rng() % 8;
    h.dst_port = static_cast<std::uint16_t>(rng() % 100);
    h.proto = rng() % 2 ? 6 : 17;
    h.dst_ip = net::IPv4Address(static_cast<std::uint32_t>(rng()));
    h.src_mac = net::MacAddress(rng() % 1024);
    for (const FieldMatch& m : matches) {
      const net::MaskSignature sig = net::MaskSignatureOf(m);
      EXPECT_EQ(m.Matches(h),
                net::ProjectKey(m, sig) == net::ProjectKey(h, sig))
          << m.ToString() << " vs " << h.ToString();
    }
  }
}

// --- CompiledClassifier ----------------------------------------------

TEST(CompiledClassifier, GroupsRulesIntoTuples) {
  // Ascending precedence order, as FlowTable stores it.
  std::vector<FlowRule> rules;
  rules.push_back(MakeRule(0, FieldMatch(), 3));  // catch-all
  for (int i = 0; i < 16; ++i) {
    rules.push_back(MakeRule(50, FieldMatch::InPort(i), 2));
  }
  for (int i = 0; i < 16; ++i) {
    rules.push_back(MakeRule(100, FieldMatch::DstPort(1000 + i), 1));
  }
  CompiledClassifier classifier;
  classifier.Build(rules);
  EXPECT_EQ(classifier.tuple_count(), 3u);
  EXPECT_EQ(classifier.rule_count(), rules.size());

  PacketHeader h = PortPacket(1005);
  EXPECT_EQ(classifier.LookupIndex(h), 22u);
  h.dst_port = 9;  // falls through dst-port tuple, hits in-port tuple
  EXPECT_EQ(classifier.LookupIndex(h), 2u);
  h.in_port = 99;  // falls through to the wildcard
  EXPECT_EQ(classifier.LookupIndex(h), 0u);
}

TEST(CompiledClassifier, MissWithoutCatchAll) {
  std::vector<FlowRule> rules;
  rules.push_back(MakeRule(10, FieldMatch::DstPort(80), 1));
  CompiledClassifier classifier;
  classifier.Build(rules);
  EXPECT_EQ(classifier.LookupIndex(PortPacket(443)),
            CompiledClassifier::kNotFound);
}

// --- FlowTable backend contract --------------------------------------

class BackendTest : public ::testing::TestWithParam<FlowTable::Backend> {
 protected:
  FlowTable table_;
  void SetUp() override { table_.SetBackend(GetParam()); }
};

TEST_P(BackendTest, HigherPriorityWins) {
  table_.Install(MakeRule(10, FieldMatch(), 1));
  table_.Install(MakeRule(20, FieldMatch::DstPort(80), 2));
  ASSERT_NE(table_.Lookup(PortPacket(80)), nullptr);
  EXPECT_EQ(table_.Lookup(PortPacket(80))->actions[0].out_port, 2u);
  EXPECT_EQ(table_.Lookup(PortPacket(443))->actions[0].out_port, 1u);
}

// The tie-break ordering contract, asserted directly: Install is stable
// (first installed wins among equal priorities) and InstallAll merges
// with existing rules winning ties.
TEST_P(BackendTest, InstallTieBreakFirstInstalledWins) {
  table_.Install(MakeRule(10, FieldMatch::DstPort(80), 1));
  table_.Install(MakeRule(10, FieldMatch::DstPort(80), 2));
  const FlowRule* hit = table_.Lookup(PortPacket(80));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].out_port, 1u);
}

TEST_P(BackendTest, InstallAllTieBreakExistingRulesWin) {
  table_.Install(MakeRule(10, FieldMatch::DstPort(80), 1));
  std::vector<FlowRule> batch;
  batch.push_back(MakeRule(10, FieldMatch::DstPort(80), 2));
  batch.push_back(MakeRule(10, FieldMatch::DstPort(443), 3));
  table_.InstallAll(std::move(batch));
  ASSERT_EQ(table_.size(), 3u);
  const FlowRule* hit = table_.Lookup(PortPacket(80));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].out_port, 1u);  // pre-existing rule wins the tie
  hit = table_.Lookup(PortPacket(443));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].out_port, 3u);
}

TEST_P(BackendTest, RemoveByCookieUpdatesLookup) {
  table_.Install(MakeRule(20, FieldMatch::DstPort(80), 1, /*cookie=*/7));
  table_.Install(MakeRule(10, FieldMatch(), 2, /*cookie=*/8));
  EXPECT_EQ(table_.Lookup(PortPacket(80))->actions[0].out_port, 1u);
  EXPECT_EQ(table_.RemoveByCookie(7), 1u);
  EXPECT_EQ(table_.Lookup(PortPacket(80))->actions[0].out_port, 2u);
}

// The classifier answers from two lists — the packet's VMAC list and the
// dst-MAC-wildcard list — and takes the larger index. Precedence must hold
// across them in both directions.
TEST_P(BackendTest, WildcardAndPinnedDstMacRulesCompareByPrecedence) {
  const net::MacAddress vmac(0x0A0000000001ull);
  table_.Install(MakeRule(20, FieldMatch::InPort(1), 1));
  table_.Install(MakeRule(10, FieldMatch::DstMac(vmac).WithInPort(1), 2));
  table_.Install(MakeRule(30, FieldMatch::DstMac(vmac).WithInPort(2), 3));
  table_.Install(MakeRule(25, FieldMatch::InPort(2), 4));
  PacketHeader h = PortPacket(80);
  h.dst_mac = vmac;
  h.in_port = 1;  // wildcard rule (20) beats the pinned one (10)
  EXPECT_EQ(table_.Lookup(h)->actions[0].out_port, 1u);
  h.in_port = 2;  // pinned rule (30) beats the wildcard one (25)
  EXPECT_EQ(table_.Lookup(h)->actions[0].out_port, 3u);
  h.dst_mac = net::MacAddress(0x0A0000000002ull);  // no list for this MAC
  EXPECT_EQ(table_.Lookup(h)->actions[0].out_port, 4u);
}

// Early exit across the two lists: the VMAC's best tuple (a dst-port rule
// at 15) ranks below the wildcard list's best entry (a dst-port rule at
// 40, which misses), and the wildcard list's second entry (in-port at 20)
// matches. The answer is that wildcard rule, not the VMAC's 15.
TEST_P(BackendTest, VmacBestBelowWildcardMatchStillLoses) {
  const net::MacAddress vmac(0x0A0000000001ull);
  table_.Install(MakeRule(0, FieldMatch(), 9));
  table_.Install(MakeRule(5, FieldMatch::DstMac(vmac), 5));
  table_.Install(MakeRule(15, FieldMatch::DstMac(vmac).WithDstPort(80), 6));
  table_.Install(MakeRule(20, FieldMatch::InPort(1), 7));
  table_.Install(MakeRule(40, FieldMatch::DstPort(443), 8));
  PacketHeader h = PortPacket(80);
  h.dst_mac = vmac;
  EXPECT_EQ(table_.Lookup(h)->actions[0].out_port, 7u);
  h.in_port = 2;  // wildcard in-port rule misses: the VMAC's best wins
  EXPECT_EQ(table_.Lookup(h)->actions[0].out_port, 6u);
  h.dst_port = 22;  // VMAC delivery rule
  EXPECT_EQ(table_.Lookup(h)->actions[0].out_port, 5u);
  h.dst_mac = net::MacAddress(0x0A0000000002ull);  // catch-all
  EXPECT_EQ(table_.Lookup(h)->actions[0].out_port, 9u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendTest,
    ::testing::Values(FlowTable::Backend::kLinear,
                      FlowTable::Backend::kCompiled),
    [](const ::testing::TestParamInfo<FlowTable::Backend>& info) {
      return info.param == FlowTable::Backend::kLinear ? "linear" : "compiled";
    });

// --- Version counter / staleness -------------------------------------

TEST(FlowTableVersioning, MutationsBumpVersionAndLookupNeverStale) {
  FlowTable table;  // compiled by default
  EXPECT_EQ(table.backend(), FlowTable::Backend::kCompiled);
  table.Install(MakeRule(10, FieldMatch::DstPort(80), 1));
  const std::uint64_t v1 = table.version();
  ASSERT_NE(table.Lookup(PortPacket(80)), nullptr);  // compiles on demand
  EXPECT_EQ(table.compiled_version(), v1);

  // A mutation invalidates the compile; the very next lookup must already
  // see the new rule — a stale classifier is never consulted.
  table.Install(MakeRule(20, FieldMatch::DstPort(80), 2));
  EXPECT_GT(table.version(), v1);
  const FlowRule* hit = table.Lookup(PortPacket(80));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions[0].out_port, 2u);
  EXPECT_EQ(table.compiled_version(), table.version());

  EXPECT_EQ(table.RemoveByCookie(kNoCookie), 2u);
  EXPECT_EQ(table.Lookup(PortPacket(80)), nullptr);
}

TEST(FlowTableVersioning, IncrementalInstallsMatchFullRebuild) {
  // A burst of single-rule installs onto a compiled table exercises the
  // incremental InsertRule replay; a reference table built in one shot
  // must agree everywhere.
  FlowTable incremental;
  FlowTable reference;
  std::vector<FlowRule> all;
  for (int i = 0; i < 12; ++i) {
    all.push_back(MakeRule(10 * (i % 4), FieldMatch::DstPort(1000 + i),
                           static_cast<net::PortId>(i), 100 + i));
  }
  all.push_back(MakeRule(0, FieldMatch(), 99));

  // Compile the incremental table early so later installs are replayed.
  incremental.Install(all[0]);
  ASSERT_NE(incremental.Lookup(PortPacket(1000)), nullptr);
  for (std::size_t i = 1; i < all.size(); ++i) incremental.Install(all[i]);
  for (const FlowRule& rule : all) reference.Install(rule);

  for (int port = 990; port < 1020; ++port) {
    const auto header = PortPacket(static_cast<std::uint16_t>(port));
    EXPECT_EQ(IndexOf(incremental, incremental.Lookup(header)),
              IndexOf(reference, reference.Lookup(header)))
        << "dst_port=" << port;
  }
}

TEST(FlowTableVersioning, SwitchingBackendsPreservesBehavior) {
  FlowTable table;
  table.SetBackend(FlowTable::Backend::kLinear);
  table.Install(MakeRule(10, FieldMatch::DstPort(80), 1));
  table.Install(MakeRule(0, FieldMatch(), 2));
  EXPECT_EQ(table.Lookup(PortPacket(80))->actions[0].out_port, 1u);
  table.SetBackend(FlowTable::Backend::kCompiled);
  EXPECT_EQ(table.Lookup(PortPacket(80))->actions[0].out_port, 1u);
  EXPECT_EQ(table.Lookup(PortPacket(22))->actions[0].out_port, 2u);
}

// --- Seeded fuzz equivalence ------------------------------------------

FieldMatch FuzzMatch(std::mt19937& rng) {
  FieldMatch m;
  if (rng() % 2) m.WithInPort(rng() % 6);
  if (rng() % 2) m.WithDstPort(static_cast<std::uint16_t>(rng() % 32));
  if (rng() % 3 == 0) m.WithSrcPort(static_cast<std::uint16_t>(rng() % 32));
  if (rng() % 3 == 0) m.WithProto(rng() % 2 ? 6 : 17);
  if (rng() % 3 == 0) m.WithDstMac(net::MacAddress(rng() % 16));
  if (rng() % 2) {
    // Small address pool + varied lengths → plenty of overlap and plenty
    // of distinct tuples.
    m.WithDstIp(net::IPv4Prefix(
        net::IPv4Address(10, 0, static_cast<std::uint8_t>(rng() % 4),
                         static_cast<std::uint8_t>(rng() % 8)),
        static_cast<std::uint8_t>(8 + 4 * (rng() % 7))));
  }
  if (rng() % 4 == 0) {
    m.WithSrcIp(net::IPv4Prefix(
        net::IPv4Address(static_cast<std::uint32_t>(rng())),
        static_cast<std::uint8_t>(rng() % 33)));
  }
  return m;
}

PacketHeader FuzzHeader(std::mt19937& rng) {
  PacketHeader h;
  h.in_port = rng() % 6;
  h.dst_port = static_cast<std::uint16_t>(rng() % 32);
  h.src_port = static_cast<std::uint16_t>(rng() % 32);
  h.proto = rng() % 2 ? 6 : 17;
  h.dst_mac = net::MacAddress(rng() % 16);
  h.src_mac = net::MacAddress(rng() % 16);
  h.dst_ip = net::IPv4Address(10, 0, static_cast<std::uint8_t>(rng() % 4),
                              static_cast<std::uint8_t>(rng() % 8));
  h.src_ip = net::IPv4Address(static_cast<std::uint32_t>(rng()));
  return h;
}

TEST(CompiledBackendFuzz, EquivalentToLinearAcrossMutations) {
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(seed);
    FlowTable linear;
    linear.SetBackend(FlowTable::Backend::kLinear);
    FlowTable compiled;
    compiled.SetBackend(FlowTable::Backend::kCompiled);

    const auto check = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        const PacketHeader h = FuzzHeader(rng);
        ASSERT_EQ(IndexOf(linear, linear.Lookup(h)),
                  IndexOf(compiled, compiled.Lookup(h)))
            << "seed=" << seed << " header=" << h.ToString();
      }
    };

    // Phase 1: bulk install.
    std::vector<FlowRule> batch;
    for (int i = 0; i < 150; ++i) {
      batch.push_back(MakeRule(static_cast<std::int32_t>(rng() % 20),
                               FuzzMatch(rng),
                               static_cast<net::PortId>(rng() % 8),
                               /*cookie=*/1 + rng() % 5));
    }
    linear.InstallAll(batch);
    compiled.InstallAll(batch);
    check(400);

    // Phase 2: incremental single-rule installs (with priority ties).
    for (int i = 0; i < 50; ++i) {
      const FlowRule rule =
          MakeRule(static_cast<std::int32_t>(rng() % 20), FuzzMatch(rng),
                   static_cast<net::PortId>(rng() % 8), 1 + rng() % 5);
      linear.Install(rule);
      compiled.Install(rule);
    }
    check(400);

    // Phase 3: removal by cookie, then more installs.
    const Cookie victim = 1 + rng() % 5;
    ASSERT_EQ(linear.RemoveByCookie(victim), compiled.RemoveByCookie(victim));
    check(400);
    for (int i = 0; i < 20; ++i) {
      const FlowRule rule =
          MakeRule(static_cast<std::int32_t>(rng() % 20), FuzzMatch(rng),
                   static_cast<net::PortId>(rng() % 8), 1 + rng() % 5);
      linear.Install(rule);
      compiled.Install(rule);
    }
    check(400);
  }
}

// The §4.3.2 fast-path shape: a large generation installed in bulk, then
// bands installed one rule at a time in descending priority above it and
// retired by cookie. An 8-rule band takes the incremental replay; a
// 100-rule band overflows the pending-insert log and forces a rebuild.
// Lookups land mid-band too, so a band's tail is replayed onto a compile
// that already holds its head.
TEST(CompiledBackendFuzz, FastPathBandsAboveAGeneration) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    std::mt19937 rng(seed);
    FlowTable linear;
    linear.SetBackend(FlowTable::Backend::kLinear);
    FlowTable compiled;
    compiled.SetBackend(FlowTable::Backend::kCompiled);

    const auto check = [&](const char* phase) {
      for (int i = 0; i < 300; ++i) {
        const PacketHeader h = FuzzHeader(rng);
        ASSERT_EQ(IndexOf(linear, linear.Lookup(h)),
                  IndexOf(compiled, compiled.Lookup(h)))
            << "seed=" << seed << " " << phase << " header=" << h.ToString();
      }
    };

    std::vector<FlowRule> generation;
    for (int i = 0; i < 1500; ++i) {
      generation.push_back(MakeRule(static_cast<std::int32_t>(rng() % 1000),
                                    FuzzMatch(rng),
                                    static_cast<net::PortId>(rng() % 8),
                                    /*cookie=*/1));
    }
    linear.InstallAll(generation);
    compiled.InstallAll(generation);
    check("generation");

    std::int32_t top = 1000;
    Cookie cookie = 100;
    for (const int band : {8, 100, 8}) {
      ++cookie;
      top += 2 * band;
      std::int32_t priority = top;
      for (int i = 0; i < band; ++i) {
        priority -= static_cast<std::int32_t>(rng() % 2);  // ties too
        const FlowRule rule =
            MakeRule(priority, FuzzMatch(rng),
                     static_cast<net::PortId>(rng() % 8), cookie);
        linear.Install(rule);
        compiled.Install(rule);
        if (i == band / 2) check("mid-band");
      }
      check("after band");
    }
    for (; cookie > 100; --cookie) {
      ASSERT_EQ(linear.RemoveByCookie(cookie),
                compiled.RemoveByCookie(cookie));
      check("after retire");
    }
    ASSERT_EQ(compiled.size(), generation.size());
  }
}

// SDX-shaped rules (§4.2): nearly every rule pins a VMAC, so the compiled
// backend dispatches on dst MAC first. Shapes mirror the compiler's output
// — in_port + dst_mac + dst_port, dst_mac + src_ip/1, dst_mac alone — over
// ~200 VMACs, mixed with dst-MAC-wildcard rules above and below them at
// equal and different priorities. Mutations cover mid-table installs into
// existing VMACs (renumbering entries across lists), new-VMAC bands of 8
// (replayed) and 100 (log overflow, rebuild) rules, and removals; packets
// also carry MACs the dispatch table does not hold.
constexpr std::uint64_t kVmacBase = 0x0A0000000000ull;
constexpr int kVmacPool = 200;

FieldMatch SdxMatch(std::mt19937& rng, std::uint64_t vmac) {
  FieldMatch m;
  switch (rng() % 8) {
    case 0:  // dst-MAC wildcard: in-port, dst-port, or both
      m.WithInPort(rng() % 6);
      if (rng() % 2) m.WithDstPort(static_cast<std::uint16_t>(rng() % 8));
      return m;
    case 1:
      if (rng() % 4 == 0) return m;  // catch-all
      return m.WithDstPort(static_cast<std::uint16_t>(rng() % 8));
    case 2:
      return FieldMatch::DstMac(net::MacAddress(vmac));
    case 3:
    case 4:
      return FieldMatch::DstMac(net::MacAddress(vmac)).WithSrcIp(
          net::IPv4Prefix(net::IPv4Address(rng() % 2 ? 0x80000000u : 0u), 1));
    default:
      return FieldMatch::DstMac(net::MacAddress(vmac))
          .WithInPort(rng() % 6)
          .WithDstPort(static_cast<std::uint16_t>(rng() % 8));
  }
}

TEST(CompiledBackendFuzz, VmacDispatchMatchesLinear) {
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    std::mt19937 rng(seed);
    FlowTable linear;
    linear.SetBackend(FlowTable::Backend::kLinear);
    FlowTable compiled;
    compiled.SetBackend(FlowTable::Backend::kCompiled);

    // Band VMACs sit above the pool; kVmacBase + 5000 and up are never
    // installed, so those packets find no dispatch entry.
    std::uint64_t next_band_vmac = kVmacBase + kVmacPool;
    const auto header = [&]() {
      PacketHeader h;
      h.in_port = rng() % 6;
      h.dst_port = static_cast<std::uint16_t>(rng() % 8);
      h.src_ip = net::IPv4Address(static_cast<std::uint32_t>(rng()));
      switch (rng() % 8) {
        case 0:
          h.dst_mac = net::MacAddress(kVmacBase + 5000 + rng() % 64);
          break;
        case 1:
          h.dst_mac = net::MacAddress(
              kVmacBase + kVmacPool +
              rng() % (next_band_vmac - kVmacBase - kVmacPool + 1));
          break;
        default:
          h.dst_mac = net::MacAddress(kVmacBase + rng() % kVmacPool);
          break;
      }
      return h;
    };
    const auto check = [&](const char* phase) {
      for (int i = 0; i < 400; ++i) {
        const PacketHeader h = header();
        ASSERT_EQ(IndexOf(linear, linear.Lookup(h)),
                  IndexOf(compiled, compiled.Lookup(h)))
            << "seed=" << seed << " " << phase << " header=" << h.ToString();
      }
    };
    const auto install = [&](const FlowRule& rule) {
      linear.Install(rule);
      compiled.Install(rule);
    };

    // A generation with few distinct priorities: plenty of ties between
    // wildcard and pinned rules, and between lists.
    std::vector<FlowRule> generation;
    for (int i = 0; i < 1500; ++i) {
      generation.push_back(MakeRule(
          static_cast<std::int32_t>(rng() % 50),
          SdxMatch(rng, kVmacBase + rng() % kVmacPool),
          static_cast<net::PortId>(rng() % 8), /*cookie=*/1 + rng() % 3));
    }
    linear.InstallAll(generation);
    compiled.InstallAll(generation);
    check("generation");

    // Mid-table installs into existing VMACs, in bursts short enough to
    // be replayed: each shifts stored indices in tuples and lists.
    for (int burst = 0; burst < 4; ++burst) {
      for (int i = 0; i < 12; ++i) {
        install(MakeRule(static_cast<std::int32_t>(rng() % 50),
                         SdxMatch(rng, kVmacBase + rng() % kVmacPool),
                         static_cast<net::PortId>(rng() % 8),
                         /*cookie=*/1 + rng() % 3));
        if (i == 6) check("mid-table burst");
      }
      check("after mid-table burst");
    }

    // New-VMAC bands above every stored rule, descending priority.
    std::int32_t top = 100;
    Cookie cookie = 100;
    for (const int band : {8, 100, 8}) {
      ++cookie;
      top += 2 * band;
      std::int32_t priority = top;
      for (int i = 0; i < band; ++i) {
        if (i % 4 == 0) ++next_band_vmac;
        priority -= static_cast<std::int32_t>(rng() % 2);  // ties too
        install(MakeRule(priority, SdxMatch(rng, next_band_vmac),
                         static_cast<net::PortId>(rng() % 8), cookie));
        if (i == band / 2) check("mid-band");
      }
      check("after band");
    }

    const Cookie generation_victim = 1 + rng() % 3;
    ASSERT_EQ(linear.RemoveByCookie(generation_victim),
              compiled.RemoveByCookie(generation_victim));
    check("after generation removal");
    for (; cookie > 100; --cookie) {
      ASSERT_EQ(linear.RemoveByCookie(cookie),
                compiled.RemoveByCookie(cookie));
      check("after band retire");
    }
  }
}

// --- Batched processing ----------------------------------------------

TEST(ProcessBatch, MatchesSequentialProcessing) {
  std::mt19937 rng(11);
  std::vector<FlowRule> rules;
  for (int i = 0; i < 64; ++i) {
    rules.push_back(MakeRule(100, FieldMatch::DstPort(1000 + i),
                             static_cast<net::PortId>(16 + i % 4), 50 + i));
  }
  rules.push_back(MakeRule(0, FieldMatch(), 0, 1));
  rules.back().actions.clear();  // catch-all drop

  SwitchDataPlane sequential;
  SwitchDataPlane batched;
  sequential.table().InstallAll(rules);
  batched.table().InstallAll(rules);

  std::vector<net::Packet> packets;
  for (int i = 0; i < 500; ++i) {
    net::Packet p;
    p.header.in_port = rng() % 4;
    p.header.dst_port = static_cast<std::uint16_t>(1000 + rng() % 96);
    p.size_bytes = 64 + rng() % 512;
    packets.push_back(p);
  }

  std::vector<Emission> expected;
  for (const net::Packet& p : packets) {
    for (Emission& e : sequential.Process(p)) expected.push_back(std::move(e));
  }
  const std::vector<Emission> got = batched.ProcessBatch(packets);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].out_port, expected[i].out_port);
    EXPECT_EQ(got[i].packet.header, expected[i].packet.header);
    EXPECT_EQ(got[i].packet.size_bytes, expected[i].packet.size_bytes);
  }
  // Same counters and drops, port by port and reason by reason.
  for (net::PortId port = 0; port < 24; ++port) {
    EXPECT_EQ(batched.StatsFor(port).rx_packets,
              sequential.StatsFor(port).rx_packets);
    EXPECT_EQ(batched.StatsFor(port).tx_bytes,
              sequential.StatsFor(port).tx_bytes);
  }
  for (const obs::DropReason reason : obs::kAllDropReasons) {
    EXPECT_EQ(batched.drops().count(reason), sequential.drops().count(reason));
  }
  EXPECT_EQ(batched.table().hit_count(), sequential.table().hit_count());
  EXPECT_EQ(batched.table().miss_count(), sequential.table().miss_count());
}

}  // namespace
}  // namespace sdx::dataplane
