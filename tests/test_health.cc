// HealthMonitor + SdxRuntime::HealthSnapshot (DESIGN.md §10): threshold
// evaluation, journal-derived flap rates, JSON export, and the live
// runtime integration `sdxmon health` consumes.
#include <gtest/gtest.h>

#include <string>

#include "obs/health.h"
#include "obs/json.h"
#include "sdx/runtime.h"

namespace sdx::core {
namespace {

using obs::HealthMonitor;
using obs::HealthReport;
using obs::HealthThresholds;
using obs::Journal;
using obs::JournalEventType;

// ---------------------------------------------------------------------------
// Threshold evaluation

TEST(HealthMonitor, EmptyReportIsOk) {
  const HealthReport report = HealthMonitor().Evaluate(HealthReport{});
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.reasons.empty());
}

TEST(HealthMonitor, BusyButWithinThresholdsIsOk) {
  HealthReport report;
  report.queue_depth = 9999;
  report.batch_lag_seconds = 4.9;
  report.flap_rates[100] = 49.0;
  report = HealthMonitor().Evaluate(std::move(report));
  EXPECT_FALSE(report.degraded);
}

TEST(HealthMonitor, EachThresholdTripsItsOwnReason) {
  HealthReport report;
  report.queue_depth = 10001;
  report.batch_lag_seconds = 6.0;
  report.table_miss_drops = 1;
  report.histogram_bounds_conflicts = 2;
  report.flap_rates[65001] = 51.0;
  report.flap_rates[65002] = 1.0;  // under the limit: no reason
  report = HealthMonitor().Evaluate(std::move(report));
  EXPECT_TRUE(report.degraded);
  ASSERT_EQ(report.reasons.size(), 5u);
  EXPECT_NE(report.reasons[0].find("queue_depth"), std::string::npos);
  EXPECT_NE(report.reasons[1].find("batch_lag"), std::string::npos);
  EXPECT_NE(report.reasons[2].find("table_miss_drops"), std::string::npos);
  EXPECT_NE(report.reasons[3].find("histogram_bounds_conflicts"),
            std::string::npos);
  EXPECT_NE(report.reasons[4].find("as65001"), std::string::npos);
}

TEST(HealthMonitor, EvaluateDiscardsAPreviousVerdict) {
  HealthReport report;
  report.degraded = true;
  report.reasons = {"stale reason from a previous evaluation"};
  report = HealthMonitor().Evaluate(std::move(report));
  EXPECT_FALSE(report.degraded);
  EXPECT_TRUE(report.reasons.empty());
}

TEST(HealthMonitor, CustomThresholdsTightenTheBand) {
  HealthThresholds strict;
  strict.max_queue_depth = 0;
  HealthReport report;
  report.queue_depth = 1;
  report = HealthMonitor(strict).Evaluate(std::move(report));
  EXPECT_TRUE(report.degraded);
}

// ---------------------------------------------------------------------------
// Flap rates from the journal flight recorder

TEST(HealthMonitor, FlapRatesCountBgpUpdateBeginPerSender) {
  Journal journal;
  for (int i = 0; i < 10; ++i) {
    journal.Record(JournalEventType::kBgpUpdateBegin, /*update_id=*/0,
                   /*arg0=*/100);
  }
  journal.Record(JournalEventType::kBgpUpdateBegin, 0, /*arg0=*/200);
  journal.Record(JournalEventType::kBgpUpdateBegin, 0, /*arg0=*/200);
  // Other event types never count as flaps.
  journal.Record(JournalEventType::kCompileBegin, 0);
  journal.Record(JournalEventType::kRsDecision, 0, /*arg0=*/100);

  // The test records land within far less than min_window_seconds, so the
  // window widens to exactly 1s and rate == count.
  const auto rates = HealthMonitor::FlapRatesFromJournal(&journal, 1.0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates.at(100), 10.0);
  EXPECT_DOUBLE_EQ(rates.at(200), 2.0);
}

TEST(HealthMonitor, FlapRatesHandleNullAndEmptyJournals) {
  EXPECT_TRUE(HealthMonitor::FlapRatesFromJournal(nullptr).empty());
  Journal empty;
  EXPECT_TRUE(HealthMonitor::FlapRatesFromJournal(&empty).empty());
  Journal no_updates;
  no_updates.Record(JournalEventType::kCompileBegin, 0);
  EXPECT_TRUE(HealthMonitor::FlapRatesFromJournal(&no_updates).empty());
}

// ---------------------------------------------------------------------------
// JSON export (what `sdxmon health` parses)

TEST(HealthReport, ToJsonParsesBackThroughObsJson) {
  HealthReport report;
  report.queue_depth = 3;
  report.batch_lag_seconds = 0.25;
  report.updates_processed = 42;
  report.rib_prefixes = 100;
  report.flow_table_rules = 57;
  report.participants = 5;
  report.table_miss_drops = 1;
  report.flap_rates[65001] = 12.5;
  report = HealthMonitor().Evaluate(std::move(report));
  ASSERT_TRUE(report.degraded);

  const obs::json::Value doc = obs::json::Parse(report.ToJson());
  EXPECT_EQ(doc.StringAt("status"), "degraded");
  EXPECT_EQ(doc.NumberAt("queue_depth"), 3.0);
  EXPECT_EQ(doc.NumberAt("batch_lag_seconds"), 0.25);
  EXPECT_EQ(doc.NumberAt("updates_processed"), 42.0);
  EXPECT_EQ(doc.NumberAt("rib_prefixes"), 100.0);
  EXPECT_EQ(doc.NumberAt("flow_table_rules"), 57.0);
  EXPECT_EQ(doc.NumberAt("participants"), 5.0);
  const obs::json::Value* reasons = doc.Find("reasons");
  ASSERT_NE(reasons, nullptr);
  ASSERT_FALSE(reasons->array.empty());
  const obs::json::Value* flaps = doc.Find("flap_rates");
  ASSERT_NE(flaps, nullptr);
  EXPECT_EQ(flaps->NumberAt("65001"), 12.5);
}

// ---------------------------------------------------------------------------
// Runtime integration

net::IPv4Prefix P(int i) {
  return net::IPv4Prefix(net::IPv4Address(10, static_cast<uint8_t>(i), 0, 0),
                         16);
}

TEST(RuntimeHealth, CompiledRuntimeReportsOkWithRealSizes) {
  SdxRuntime runtime;
  runtime.AddParticipant(100, 1);
  runtime.AddParticipant(200, 1);
  for (int i = 1; i <= 3; ++i) runtime.AnnouncePrefix(200, P(i), {200});
  runtime.FullCompile();

  const HealthReport report = runtime.HealthSnapshot();
  EXPECT_FALSE(report.degraded) << report.ToJson();
  EXPECT_EQ(report.queue_depth, 0u);
  EXPECT_EQ(report.batch_lag_seconds, 0.0);
  EXPECT_EQ(report.participants, 2u);
  EXPECT_EQ(report.rib_prefixes, 3u);
  EXPECT_GT(report.flow_table_rules, 0u);
  EXPECT_GT(report.last_compile_seconds, 0.0);
  EXPECT_EQ(report.table_miss_drops, 0u);
}

TEST(RuntimeHealth, PendingQueueShowsDepthAndLag) {
  SdxRuntime runtime;
  runtime.AddParticipant(100, 1);
  runtime.AddParticipant(200, 1);
  runtime.FullCompile();

  bgp::Announcement a;
  a.from_as = 200;
  a.route.prefix = P(1);
  a.route.as_path = {200};
  a.route.next_hop = runtime.RouterIp(200);
  runtime.EnqueueUpdate(bgp::BgpUpdate{a});

  HealthReport pending = runtime.HealthSnapshot();
  EXPECT_EQ(pending.queue_depth, 1u);
  EXPECT_GT(pending.batch_lag_seconds, 0.0);

  // A zero-tolerance threshold flags the backlog...
  HealthThresholds strict;
  strict.max_queue_depth = 0;
  EXPECT_TRUE(runtime.HealthSnapshot(strict).degraded);

  // ...and draining it restores ok plus the flush durations.
  runtime.Flush();
  const HealthReport drained = runtime.HealthSnapshot(strict);
  EXPECT_FALSE(drained.degraded) << drained.ToJson();
  EXPECT_EQ(drained.queue_depth, 0u);
  EXPECT_EQ(drained.batch_lag_seconds, 0.0);
  EXPECT_GT(drained.last_flush_seconds, 0.0);
  EXPECT_GT(drained.updates_processed, 0u);
}

TEST(RuntimeHealth, FlapRatesSurfacePerParticipant) {
  SdxRuntime runtime;
  runtime.AddParticipant(100, 1);
  runtime.AddParticipant(200, 1);
  runtime.FullCompile();

  bgp::Announcement a;
  a.from_as = 200;
  a.route.prefix = P(1);
  a.route.as_path = {200};
  a.route.next_hop = runtime.RouterIp(200);
  for (std::uint32_t pref = 1; pref <= 5; ++pref) {
    a.route.local_pref = pref;
    const bgp::BgpUpdate update{a};
    runtime.ApplyUpdates({&update, 1});
  }

  const HealthReport report = runtime.HealthSnapshot();
  ASSERT_TRUE(report.flap_rates.contains(200u)) << report.ToJson();
  EXPECT_GT(report.flap_rates.at(200u), 0.0);
}

}  // namespace
}  // namespace sdx::core
