// Cross-layer observability integration tests on the Figure 1 runtime:
// per-stage compile/update traces, drop-reason accounting (every refused
// packet lands in exactly one bucket), and the synced metrics snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sdx/multi_switch.h"
#include "sdx/runtime.h"

namespace sdx::core {
namespace {

using obs::DropReason;
using policy::Predicate;

constexpr AsNumber kA = 100;
constexpr AsNumber kB = 200;
constexpr AsNumber kC = 300;

// Same Figure-1 shape as test_sdx_runtime.cc: A peers with B (2 ports) and
// C; B's export of p4 to A is denied; A sends web via B, https via C.
class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_.AddParticipant(kA, 1);
    runtime_.AddParticipant(kB, 2);
    runtime_.AddParticipant(kC, 1);
    runtime_.route_server().DenyExport(kB, kA, P(4));
    for (int i = 1; i <= 4; ++i) runtime_.AnnouncePrefix(kB, P(i), {kB, 900});
    for (int i = 1; i <= 4; ++i) {
      runtime_.AnnouncePrefix(kC, P(i),
                              i == 3 ? std::vector<bgp::AsNumber>{kC, 901, 902}
                                     : std::vector<bgp::AsNumber>{kC});
    }
    OutboundClause web;
    web.match = Predicate::DstPort(80);
    web.to = kB;
    runtime_.SetOutboundPolicy(kA, {web});
    runtime_.FullCompile();
  }

  static net::IPv4Prefix P(int i) {
    return net::IPv4Prefix(net::IPv4Address(10, static_cast<uint8_t>(i), 0, 0),
                           16);
  }

  net::Packet PacketTo(net::IPv4Address dst, std::uint16_t dst_port) {
    net::Packet p;
    p.header.src_ip = net::IPv4Address(10, 99, 0, 1);
    p.header.dst_ip = dst;
    p.header.proto = net::kProtoTcp;
    p.header.dst_port = dst_port;
    p.size_bytes = 1000;
    return p;
  }

  net::Packet PacketToPrefix(int i, std::uint16_t dst_port) {
    return PacketTo(net::IPv4Address(10, static_cast<uint8_t>(i), 1, 1),
                    dst_port);
  }

  static std::vector<std::string> Names(
      const std::vector<obs::SpanRecord>& spans) {
    std::vector<std::string> out;
    out.reserve(spans.size());
    for (const auto& span : spans) out.push_back(span.name);
    return out;
  }

  static bool Contains(const std::vector<std::string>& names,
                       const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  // One update through the fast path, as a batch of one.
  BatchStats Apply(const bgp::BgpUpdate& update) {
    return runtime_.ApplyUpdates({&update, 1});
  }

  // Turns sampled flow export on (with `options`) or off.
  void SetFlowTelemetry(bool enabled, obs::FlowRecorder::Options options = {}) {
    obs::TelemetryOptions telemetry = runtime_.telemetry_options();
    telemetry.flow = {.enabled = enabled, .options = options};
    runtime_.ConfigureTelemetry(telemetry);
  }

  SdxRuntime runtime_;
};

// ---------------------------------------------------------------------------
// Per-stage traces

TEST_F(ObsIntegrationTest, FullCompileReportsEveryStage) {
  CompileStats stats = runtime_.FullCompile();
  const auto names = Names(stats.stages);
  for (const char* stage :
       {"full_compile", "recompute_groups", "fec_compute", "vnh_allocation",
        "readvertise_routes", "policy_composition", "inbound_blocks",
        "override_blocks", "default_blocks", "finalize_classifier",
        "rule_install"}) {
    EXPECT_TRUE(Contains(names, stage)) << stage;
  }

  // The root span covers the whole operation and the stage durations are
  // consistent with the reported total.
  ASSERT_FALSE(stats.stages.empty());
  EXPECT_EQ(stats.stages[0].name, "full_compile");
  EXPECT_EQ(stats.stages[0].depth, 0);
  EXPECT_LE(stats.stages[0].seconds, stats.seconds);
  double top_level_sum = 0.0;
  for (const auto& span : stats.stages) {
    if (span.depth == 1) top_level_sum += span.seconds;
  }
  EXPECT_LE(top_level_sum, stats.stages[0].seconds + 1e-9);

  // Nesting: fec_compute/vnh_allocation sit under recompute_groups;
  // inbound_blocks sits under policy_composition.
  for (const auto& span : stats.stages) {
    if (span.name == "fec_compute" || span.name == "vnh_allocation") {
      EXPECT_EQ(stats.stages[span.parent].name, "recompute_groups");
    }
    if (span.name == "inbound_blocks" || span.name == "override_blocks" ||
        span.name == "default_blocks" ||
        span.name == "finalize_classifier") {
      EXPECT_EQ(stats.stages[span.parent].name, "policy_composition");
    }
  }

  // The runtime keeps the last trace for introspection.
  EXPECT_GT(runtime_.last_trace().spans().size(), 0u);
  EXPECT_GT(runtime_.last_trace().SecondsFor("full_compile"), 0.0);
}

TEST_F(ObsIntegrationTest, FastPathUpdateReportsItsStages) {
  bgp::Announcement better;
  better.from_as = kB;
  better.route.prefix = P(1);
  better.route.as_path = {kB};  // shorter than before: best route changes
  better.route.local_pref = 500;
  better.route.next_hop = runtime_.RouterIp(kB);
  const BatchStats stats = Apply(bgp::BgpUpdate{better});
  ASSERT_EQ(stats.prefixes_changed, 1u);

  const auto names = Names(stats.stages);
  for (const char* stage : {"apply_update_batch", "rib_update",
                            "group_construction", "slice_compile",
                            "rule_install", "readvertise"}) {
    EXPECT_TRUE(Contains(names, stage)) << stage;
  }
}

TEST_F(ObsIntegrationTest, NoChangeUpdateHasNoFastPathStages) {
  // B re-announces its existing route for p1 verbatim: the adj-RIB-in is
  // unchanged, so no best route can change anywhere.
  bgp::Announcement same;
  same.from_as = kB;
  same.route.prefix = P(1);
  same.route.as_path = {kB, 900};
  same.route.next_hop = runtime_.RouterIp(kB);
  const BatchStats stats = Apply(bgp::BgpUpdate{same});
  EXPECT_EQ(stats.prefixes_changed, 0u);
  const auto names = Names(stats.stages);
  EXPECT_TRUE(Contains(names, "rib_update"));
  EXPECT_FALSE(Contains(names, "slice_compile"));
}

// ---------------------------------------------------------------------------
// Drop accounting

TEST_F(ObsIntegrationTest, EveryRefusedPacketLandsInExactlyOneBucket) {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  auto inject = [&](AsNumber as, net::Packet packet) {
    ++injected;
    auto emissions = runtime_.InjectFromParticipant(as, std::move(packet));
    EXPECT_LE(emissions.size(), 1u);
    delivered += emissions.empty() ? 0 : 1;
  };

  // Delivered: A's web traffic to p1 via B.
  inject(kA, PacketToPrefix(1, 80));
  // Delivered: default BGP forwarding to p3 via B.
  inject(kA, PacketToPrefix(3, 443));
  // no_fib_route: no participant announced 172.16/12.
  inject(kA, PacketTo(*net::IPv4Address::Parse("172.16.5.5"), 80));
  inject(kA, PacketTo(*net::IPv4Address::Parse("172.16.5.6"), 80));
  // isolation_violation: traffic from an AS the SDX never registered.
  inject(999, PacketToPrefix(1, 80));
  // isolation_violation: reinjection on a port outside the fabric.
  ++injected;
  auto emissions = runtime_.ReinjectFromPort(net::PortId{999'999},
                                             PacketToPrefix(1, 80));
  EXPECT_TRUE(emissions.empty());

  const obs::DropCounters drops = runtime_.DropCounts();
  EXPECT_EQ(drops.count(DropReason::kNoFibRoute), 2u);
  EXPECT_EQ(drops.count(DropReason::kIsolationViolation), 2u);
  EXPECT_EQ(drops.count(DropReason::kArpUnresolved), 0u);
  EXPECT_EQ(drops.count(DropReason::kTableMiss), 0u);
  // Reconciliation: injected = delivered + sum of per-reason drops.
  EXPECT_EQ(injected, delivered + drops.total());

  // The per-reason counters appear in the snapshot under drop.<reason>.
  const obs::MetricsSnapshot snap = runtime_.SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("drop.no_fib_route"), 2u);
  EXPECT_EQ(snap.counters.at("drop.isolation_violation"), 2u);
  EXPECT_EQ(snap.counters.at("drop.table_miss"), 0u);
  // ...and reconcile against the traffic totals.
  EXPECT_EQ(snap.counters.at("traffic.received_packets"), delivered);
}

TEST_F(ObsIntegrationTest, TableMissIsOnlyPossibleBeforeCompilation) {
  // A fresh runtime's table is empty: the data plane records a miss, which
  // the taxonomy reserves for compiler bugs (catch-alls are always
  // installed after FullCompile).
  SdxRuntime fresh;
  fresh.AddParticipant(kA, 1);
  auto emissions = fresh.data_plane().Process(PacketToPrefix(1, 80));
  EXPECT_TRUE(emissions.empty());
  EXPECT_EQ(fresh.DropCounts().count(DropReason::kTableMiss), 1u);
}

TEST_F(ObsIntegrationTest, ExplicitDropIsDistinctFromTableMiss) {
  // A packet the fabric refuses by policy: it reaches the installed
  // classifier (whose bottom catch-all has an empty action list) instead of
  // missing the table. Bogus in_port + unknown dst MAC falls through every
  // forwarding band.
  net::Packet packet = PacketToPrefix(1, 80);
  packet.header.in_port = net::PortId{424'242};
  auto emissions = runtime_.data_plane().Process(packet);
  EXPECT_TRUE(emissions.empty());
  EXPECT_EQ(runtime_.DropCounts().count(DropReason::kExplicitDrop), 1u);
  EXPECT_EQ(runtime_.DropCounts().count(DropReason::kTableMiss), 0u);
}

TEST_F(ObsIntegrationTest, ArpUnresolvedIsAttributedByTheBorderRouter) {
  Fib fib;
  fib.Set(P(1), *net::IPv4Address::Parse("192.168.0.1"), {});
  BorderRouter router(kA, net::PortId{1}, net::MacAddress{}, fib, 0);
  dataplane::ArpResponder empty_arp;
  obs::DropReason reason = DropReason::kNoFibRoute;
  EXPECT_FALSE(router.EmitPacket(PacketToPrefix(1, 80), empty_arp, &reason));
  EXPECT_EQ(reason, DropReason::kArpUnresolved);
}

// ---------------------------------------------------------------------------
// Flow-table hit/miss counters (satellite: counter semantics)

TEST_F(ObsIntegrationTest, FlowTableCountsHitsAndMisses) {
  const auto& table = runtime_.data_plane().table();
  const std::uint64_t hits_before = table.hit_count();
  auto emissions = runtime_.InjectFromParticipant(kA, PacketToPrefix(1, 80));
  ASSERT_EQ(emissions.size(), 1u);
  EXPECT_GT(table.hit_count(), hits_before);
  EXPECT_EQ(table.miss_count(), 0u);

  const obs::MetricsSnapshot snap = runtime_.SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("dataplane.flow_table.hits"),
            table.hit_count());
  EXPECT_EQ(snap.counters.at("dataplane.flow_table.misses"), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot contents

TEST_F(ObsIntegrationTest, SnapshotCoversEveryComponent) {
  runtime_.InjectFromParticipant(kA, PacketToPrefix(1, 80));
  const obs::MetricsSnapshot snap = runtime_.SnapshotMetrics();

  // Compilation: the SetUp FullCompile recorded its latency histogram and
  // per-stage breakdowns.
  EXPECT_EQ(snap.counters.at("compile.count"), 1u);
  EXPECT_EQ(snap.histograms.at("compile.seconds").count, 1u);
  EXPECT_GT(snap.histograms.at("compile.seconds").sum, 0.0);
  EXPECT_TRUE(snap.histograms.contains("compile.stage.vnh_allocation.seconds"));
  EXPECT_TRUE(
      snap.histograms.contains("compile.stage.policy_composition.seconds"));
  EXPECT_GT(snap.gauges.at("compile.prefix_groups"), 0.0);
  EXPECT_GT(snap.gauges.at("compile.vnh_allocated"), 0.0);

  // Route server: per-participant announcement counters and the export
  // suppression from DenyExport(kB, kA, p4).
  EXPECT_EQ(snap.counters.at("rs.as200.announcements"), 4u);
  EXPECT_EQ(snap.counters.at("rs.as300.announcements"), 4u);
  EXPECT_GE(snap.counters.at("rs.export_suppressions"), 1u);

  // Traffic totals.
  EXPECT_EQ(snap.counters.at("traffic.as100.sent_packets"), 1u);
  EXPECT_EQ(snap.counters.at("traffic.received_packets"), 1u);

  // Every drop reason is present (zero or not) — dashboards can rely on
  // the full taxonomy existing.
  for (obs::DropReason reason : obs::kAllDropReasons) {
    EXPECT_TRUE(snap.counters.contains(std::string("drop.") +
                                       obs::DropReasonName(reason)))
        << obs::DropReasonName(reason);
  }

  // And the whole thing exports as non-empty JSON.
  EXPECT_GT(snap.ToJson().size(), 2u);
}

TEST_F(ObsIntegrationTest, BgpUpdateMetricsAccumulate) {
  bgp::Announcement better;
  better.from_as = kB;
  better.route.prefix = P(1);
  better.route.as_path = {kB};
  better.route.local_pref = 500;
  better.route.next_hop = runtime_.RouterIp(kB);
  Apply(bgp::BgpUpdate{better});

  // A single update is a batch of one: it lands in the batch.* metrics,
  // and bgp_update.* keeps only the best-route-changed count.
  const obs::MetricsSnapshot snap = runtime_.SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("batch.count"), 1u);
  EXPECT_EQ(snap.counters.at("batch.applied"), 1u);
  EXPECT_EQ(snap.counters.at("bgp_update.best_route_changed"), 1u);
  EXPECT_EQ(snap.histograms.at("batch.seconds").count, 1u);
  EXPECT_TRUE(snap.histograms.contains("batch.stage.slice_compile.seconds"));
  EXPECT_FALSE(snap.counters.contains("bgp_update.count"));
  EXPECT_FALSE(snap.histograms.contains("bgp_update.seconds"));
  // The fast-path singleton group shows up in the synced gauges.
  EXPECT_GT(snap.gauges.at("compile.fast_path_groups"), 0.0);
}

// ---------------------------------------------------------------------------
// Sinks propagation (satellite: one SetSinks wiring point per component)

TEST_F(ObsIntegrationTest, SinksExposeTheRuntimeBackendsAndShareOneJournal) {
  const obs::Sinks sinks = runtime_.sinks();
  EXPECT_EQ(sinks.metrics, &runtime_.metrics());
  EXPECT_EQ(sinks.journal, runtime_.journal());
  EXPECT_EQ(sinks.flows, nullptr);  // flow telemetry is off by default
  ASSERT_NE(sinks.journal, nullptr);

  // The data plane's wired journal IS the runtime's: a sentinel recorded
  // through the component handle surfaces in the shared ring.
  ASSERT_EQ(runtime_.data_plane().table().journal(), runtime_.journal());
  const std::uint64_t before = sinks.journal->next_seq();
  runtime_.data_plane().table().journal()->Record(
      obs::JournalEventType::kCompileBegin, obs::kNoUpdateId,
      /*arg0=*/424242);
  const auto events = runtime_.journal()->TailSince(before);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg0, 424242u);
}

TEST_F(ObsIntegrationTest, MultiSwitchSetSinksPropagatesTheSharedJournal) {
  MultiSwitchDeployment deployment(runtime_.topology(), 1);
  deployment.SetSinks(runtime_.sinks());
  const std::uint64_t before = runtime_.journal()->next_seq();
  deployment.Install(runtime_.data_plane().table().rules());
  // The deployment's switches journaled their installs into the runtime's
  // ring — no per-component journal, one flight recorder.
  bool saw_flow_mod = false;
  for (const obs::JournalEvent& e : runtime_.journal()->TailSince(before)) {
    saw_flow_mod = saw_flow_mod ||
                   e.type == obs::JournalEventType::kFlowRulesBulk ||
                   e.type == obs::JournalEventType::kFlowRuleInstall;
  }
  EXPECT_TRUE(saw_flow_mod);
}

// ---------------------------------------------------------------------------
// Flow telemetry (DESIGN.md §10)

TEST_F(ObsIntegrationTest, EnableFlowTelemetryWiresRecorderIntoSinks) {
  EXPECT_EQ(runtime_.flow_recorder(), nullptr);
  obs::FlowRecorder::Options options;
  options.sample_rate = 1;
  SetFlowTelemetry(true, options);
  ASSERT_NE(runtime_.flow_recorder(), nullptr);
  EXPECT_EQ(runtime_.sinks().flows, runtime_.flow_recorder());
  EXPECT_EQ(runtime_.data_plane().flow_recorder(), runtime_.flow_recorder());

  SetFlowTelemetry(false);
  EXPECT_EQ(runtime_.flow_recorder(), nullptr);
  EXPECT_EQ(runtime_.sinks().flows, nullptr);
  EXPECT_EQ(runtime_.data_plane().flow_recorder(), nullptr);
}

TEST_F(ObsIntegrationTest, FlowRecordsResolveParticipantsAndFec) {
  obs::FlowRecorder::Options options;
  options.sample_rate = 1;  // record every packet: deterministic counts
  SetFlowTelemetry(true, options);

  ASSERT_EQ(runtime_.InjectFromParticipant(kA, PacketToPrefix(1, 80)).size(),
            1u);
  obs::FlowRecorder* recorder = runtime_.flow_recorder();
  EXPECT_EQ(recorder->packets_seen(), 1u);
  recorder->FlushAll();
  const auto records = recorder->Drain();
  ASSERT_EQ(records.size(), 1u);
  // Port owners were seeded from the topology: A sent, B's port received
  // (A's web traffic goes to B per the outbound policy).
  EXPECT_EQ(records[0].src_as, kA);
  EXPECT_EQ(records[0].dst_as, kB);
  // The FEC tag is the ingress VMAC the route server assigned: non-zero
  // for a forwarded packet.
  EXPECT_NE(records[0].fec, 0u);
  EXPECT_EQ(records[0].sampled_packets, 1u);
  EXPECT_EQ(records[0].est_packets, 1u);

  // The telemetry self-metrics land in the runtime snapshot.
  const obs::MetricsSnapshot snap = runtime_.SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("telemetry.packets_seen"), 1u);
  EXPECT_EQ(snap.counters.at("telemetry.flows_exported"), 1u);
  EXPECT_EQ(snap.counters.at("telemetry.flows_dropped"), 0u);
}

TEST_F(ObsIntegrationTest, FlowsDroppedAtAFullExportQueueAreCounted) {
  obs::FlowRecorder::Options options;
  options.sample_rate = 1;
  options.cache_capacity = 1;  // each new flow closes the previous one
  SetFlowTelemetry(true, options);
  obs::FlowRecorder* recorder = runtime_.flow_recorder();
  obs::FlowRecorder::Sample sample;
  const std::uint64_t flows = obs::FlowRecorder::kExportCapacity + 3;
  for (sample.rule_cookie = 0; sample.rule_cookie < flows;
       ++sample.rule_cookie) {
    recorder->RecordPacket(sample);  // nobody drains
  }
  recorder->FlushAll();
  const obs::MetricsSnapshot snap = runtime_.SnapshotMetrics();
  EXPECT_EQ(snap.counters.at("telemetry.flows_exported"),
            obs::FlowRecorder::kExportCapacity);
  EXPECT_EQ(snap.counters.at("telemetry.flows_dropped"), 3u);
}

TEST_F(ObsIntegrationTest, FlowTelemetryDoesNotChangeForwarding) {
  // The oracle property in miniature: the same packet set produces
  // byte-identical emissions with telemetry off and on.
  const std::vector<net::Packet> packets = {
      PacketToPrefix(1, 80),  PacketToPrefix(3, 443), PacketToPrefix(2, 80),
      PacketToPrefix(4, 443), PacketToPrefix(1, 22),
  };
  std::vector<std::vector<dataplane::Emission>> off;
  for (const auto& packet : packets) {
    off.push_back(runtime_.InjectFromParticipant(kA, packet));
  }

  obs::FlowRecorder::Options options;
  options.sample_rate = 2;
  SetFlowTelemetry(true, options);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto on = runtime_.InjectFromParticipant(kA, packets[i]);
    ASSERT_EQ(on.size(), off[i].size()) << "packet " << i;
    for (std::size_t j = 0; j < on.size(); ++j) {
      EXPECT_EQ(on[j].out_port, off[i][j].out_port) << "packet " << i;
      EXPECT_EQ(on[j].packet.header, off[i][j].packet.header) << "packet "
                                                              << i;
      EXPECT_EQ(on[j].packet.size_bytes, off[i][j].packet.size_bytes);
    }
  }
  EXPECT_GT(runtime_.flow_recorder()->packets_seen(), 0u);
}

}  // namespace
}  // namespace sdx::core
