// The bench-metrics regression differ and the JSON reader underneath it:
// threshold semantics (counter rel+abs, per-quantile ratios, noise floor),
// membership changes, and a round trip through the real
// MetricsSnapshot::ToJson exporter.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/bench_diff.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace sdx::obs {
namespace {

// --- json::Parse ----------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  json::Value v = json::Parse(
      R"({"a": 1.5, "b": "x\"y", "c": [true, null, -2e3], "d": {}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.NumberAt("a"), 1.5);
  EXPECT_EQ(v.StringAt("b"), "x\"y");
  const json::Value* c = v.Find("c");
  ASSERT_TRUE(c != nullptr && c->is_array());
  ASSERT_EQ(c->array.size(), 3u);
  EXPECT_TRUE(c->array[0].boolean);
  EXPECT_TRUE(c->array[1].is_null());
  EXPECT_DOUBLE_EQ(c->array[2].number, -2000.0);
  EXPECT_TRUE(v.Find("d")->is_object());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::Parse(""), std::runtime_error);
  EXPECT_THROW(json::Parse("{"), std::runtime_error);
  EXPECT_THROW(json::Parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(json::Parse("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(json::Parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(json::Parse("\"unterminated"), std::runtime_error);
}

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(json::Quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  json::Value v = json::Parse(json::Quote("a\"b\\c\nd\te"));
  EXPECT_EQ(v.string, "a\"b\\c\nd\te");
}

// --- DiffMetrics ----------------------------------------------------------

json::Value Snapshot(const std::string& counters, const std::string& gauges,
                     const std::string& histograms) {
  return json::Parse("{\"counters\": {" + counters + "}, \"gauges\": {" +
                     gauges + "}, \"histograms\": {" + histograms + "}}");
}

std::string Hist(double count, double p50, double p95, double p99) {
  std::ostringstream os;
  os << "{\"count\": " << count << ", \"sum\": 0, \"min\": 0, \"max\": 0, "
     << "\"p50\": " << p50 << ", \"p95\": " << p95 << ", \"p99\": " << p99
     << ", \"buckets\": []}";
  return os.str();
}

TEST(BenchDiffTest, IdenticalSnapshotsAreClean) {
  json::Value snap = Snapshot("\"a\": 100", "\"g\": 2.5",
                              "\"h\": " + Hist(10, 1e-3, 2e-3, 3e-3));
  BenchDiff diff = DiffMetrics(snap, snap);
  EXPECT_FALSE(diff.regression);
  EXPECT_TRUE(diff.deltas.empty());
  EXPECT_EQ(diff.Render(), "no differences\n");
}

TEST(BenchDiffTest, DoubledP95IsARegression) {
  json::Value before =
      Snapshot("", "", "\"h\": " + Hist(10, 1e-3, 2e-3, 3e-3));
  json::Value after =
      Snapshot("", "", "\"h\": " + Hist(10, 1e-3, 4e-3, 3e-3));
  BenchDiff diff = DiffMetrics(before, after);
  EXPECT_TRUE(diff.regression);
  ASSERT_FALSE(diff.deltas.empty());
  // Flagged deltas sort first.
  EXPECT_EQ(diff.deltas[0].metric, "histogram h p95");
  EXPECT_TRUE(diff.deltas[0].regressed);
  EXPECT_NE(diff.Render().find("verdict: REGRESSION"), std::string::npos);
}

TEST(BenchDiffTest, ImprovementIsNotARegression) {
  json::Value before =
      Snapshot("", "", "\"h\": " + Hist(10, 4e-3, 4e-3, 4e-3));
  json::Value after =
      Snapshot("", "", "\"h\": " + Hist(10, 1e-3, 1e-3, 1e-3));
  BenchDiff diff = DiffMetrics(before, after);
  EXPECT_FALSE(diff.regression);
  EXPECT_FALSE(diff.deltas.empty());  // still reported, informationally
}

TEST(BenchDiffTest, NoiseFloorSuppressesTinyLatencies) {
  // 1µs -> 10µs is a 10x slowdown, but both sit below the 20µs floor.
  json::Value before = Snapshot("", "", "\"h\": " + Hist(10, 1e-6, 1e-6, 1e-6));
  json::Value after = Snapshot("", "", "\"h\": " + Hist(10, 1e-5, 1e-5, 1e-5));
  EXPECT_FALSE(DiffMetrics(before, after).regression);
  // Lowering the floor makes the same delta a regression.
  BenchDiffOptions strict;
  strict.noise_floor_seconds = 1e-7;
  EXPECT_TRUE(DiffMetrics(before, after, strict).regression);
}

TEST(BenchDiffTest, CounterNeedsBothRelativeAndAbsoluteChange) {
  // Small tally: huge relative change, tiny absolute change -> fine.
  EXPECT_FALSE(DiffMetrics(Snapshot("\"c\": 2", "", ""),
                           Snapshot("\"c\": 10", "", ""))
                   .regression);
  // Large tally: large absolute change, small relative change -> fine.
  EXPECT_FALSE(DiffMetrics(Snapshot("\"c\": 10000", "", ""),
                           Snapshot("\"c\": 10100", "", ""))
                   .regression);
  // Both thresholds crossed -> flagged, in either direction.
  EXPECT_TRUE(DiffMetrics(Snapshot("\"c\": 100", "", ""),
                          Snapshot("\"c\": 200", "", ""))
                  .regression);
  EXPECT_TRUE(DiffMetrics(Snapshot("\"c\": 200", "", ""),
                          Snapshot("\"c\": 50", "", ""))
                  .regression);
}

TEST(BenchDiffTest, BatchCountersGetTheTighterBand) {
  // 12 -> 16: within the generic 16-count absolute slack, but a 33%
  // drift in an ingest-pipeline tally crosses the batch band (rel 0.25,
  // abs 2).
  EXPECT_FALSE(DiffMetrics(Snapshot("\"c\": 12", "", ""),
                           Snapshot("\"c\": 16", "", ""))
                   .regression);
  BenchDiff diff = DiffMetrics(Snapshot("\"batch.coalesced\": 12", "", ""),
                               Snapshot("\"batch.coalesced\": 16", "", ""));
  EXPECT_TRUE(diff.regression);
  ASSERT_FALSE(diff.deltas.empty());
  EXPECT_EQ(diff.deltas[0].metric, "counter batch.coalesced");

  // Still slack for tiny jitter (abs <= 2)...
  EXPECT_FALSE(DiffMetrics(Snapshot("\"batch.count\": 10", "", ""),
                           Snapshot("\"batch.count\": 12", "", ""))
                   .regression);
  // ...and within the 25% relative band.
  EXPECT_FALSE(DiffMetrics(Snapshot("\"batch.applied\": 100", "", ""),
                           Snapshot("\"batch.applied\": 120", "", ""))
                   .regression);
  // The batch.depth histogram's observation count uses the same band.
  EXPECT_TRUE(
      DiffMetrics(Snapshot("", "", "\"batch.depth\": " + Hist(12, 1, 1, 1)),
                  Snapshot("", "", "\"batch.depth\": " + Hist(16, 1, 1, 1)))
          .regression);

  // The band is tunable like the generic one.
  BenchDiffOptions loose;
  loose.max_batch_counter_rel = 0.5;
  EXPECT_FALSE(DiffMetrics(Snapshot("\"batch.coalesced\": 12", "", ""),
                           Snapshot("\"batch.coalesced\": 16", "", ""), loose)
                   .regression);
}

TEST(BenchDiffTest, GaugesAreInformationalOnly) {
  BenchDiff diff = DiffMetrics(Snapshot("", "\"g\": 1", ""),
                               Snapshot("", "\"g\": 1000", ""));
  EXPECT_FALSE(diff.regression);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_EQ(diff.deltas[0].metric, "gauge g");
  EXPECT_FALSE(diff.deltas[0].regressed);
}

TEST(BenchDiffTest, TelemetryOverheadGaugesCarryAHardBudget) {
  // Unlike other gauges, telemetry.overhead* is an absolute band: any
  // after-value above the budget is a regression, regardless of before.
  BenchDiff over = DiffMetrics(
      Snapshot("", "\"telemetry.overhead_ratio\": 1.01", ""),
      Snapshot("", "\"telemetry.overhead_ratio\": 1.08", ""));
  EXPECT_TRUE(over.regression);
  ASSERT_EQ(over.deltas.size(), 1u);
  EXPECT_TRUE(over.deltas[0].regressed);
  EXPECT_NE(over.deltas[0].note.find("budget"), std::string::npos);

  BenchDiff under = DiffMetrics(
      Snapshot("", "\"telemetry.overhead_ratio\": 1.04", ""),
      Snapshot("", "\"telemetry.overhead_ratio\": 1.02", ""));
  EXPECT_FALSE(under.regression);

  // The budget is tunable (sdxmon diff --max-telemetry-overhead).
  BenchDiffOptions loose;
  loose.max_telemetry_overhead = 1.10;
  EXPECT_FALSE(DiffMetrics(
                   Snapshot("", "\"telemetry.overhead_ratio\": 1.01", ""),
                   Snapshot("", "\"telemetry.overhead_ratio\": 1.08", ""),
                   loose)
                   .regression);

  // Non-overhead telemetry gauges (timings, cache sizes) stay
  // informational.
  BenchDiff info = DiffMetrics(Snapshot("", "\"telemetry.on_seconds\": 1", ""),
                               Snapshot("", "\"telemetry.on_seconds\": 9", ""));
  EXPECT_FALSE(info.regression);

  // Only the exact ratio gauge is gated: its companions report the same
  // measurement on other scales (nanoseconds; the compiled-backend ratio)
  // and must not be judged against the 1.05 band.
  EXPECT_FALSE(DiffMetrics(Snapshot("", "\"telemetry.overhead_ns\": 7.1", ""),
                           Snapshot("", "\"telemetry.overhead_ns\": 7.6", ""))
                   .regression);
  EXPECT_FALSE(
      DiffMetrics(
          Snapshot("", "\"telemetry.overhead_ratio_compiled\": 1.08", ""),
          Snapshot("", "\"telemetry.overhead_ratio_compiled\": 1.12", ""))
          .regression);
}

TEST(BenchDiffTest, FastPathSpeedupGaugeCarriesAHardFloor) {
  // The fastpath.speedup band points the other way: any after-value BELOW
  // the floor is a regression — the compiled backend must keep paying for
  // itself — regardless of the before-value.
  BenchDiff below = DiffMetrics(
      Snapshot("", "\"fastpath.speedup_ratio\": 30.0", ""),
      Snapshot("", "\"fastpath.speedup_ratio\": 6.5", ""));
  EXPECT_TRUE(below.regression);
  ASSERT_EQ(below.deltas.size(), 1u);
  EXPECT_TRUE(below.deltas[0].regressed);
  EXPECT_NE(below.deltas[0].note.find("floor"), std::string::npos);

  BenchDiff above = DiffMetrics(
      Snapshot("", "\"fastpath.speedup_ratio\": 30.0", ""),
      Snapshot("", "\"fastpath.speedup_ratio\": 15.0", ""));
  EXPECT_FALSE(above.regression);

  // The floor is tunable.
  BenchDiffOptions loose;
  loose.min_fastpath_speedup = 5.0;
  EXPECT_FALSE(DiffMetrics(
                   Snapshot("", "\"fastpath.speedup_ratio\": 30.0", ""),
                   Snapshot("", "\"fastpath.speedup_ratio\": 6.5", ""),
                   loose)
                   .regression);

  // Companion gauges (Mpps, rule/tuple counts) stay informational.
  EXPECT_FALSE(DiffMetrics(Snapshot("", "\"fastpath.linear_mpps\": 0.2", ""),
                           Snapshot("", "\"fastpath.linear_mpps\": 0.1", ""))
                   .regression);
}

TEST(BenchDiffTest, ConvergenceP99CarriesAnAbsoluteCeiling) {
  // "convergence."-prefixed histogram p99s get an absolute after-side band
  // (DESIGN.md §12): a tail over the budget is a regression no matter the
  // before-value — INCLUDING when before == after, which the ratio checks
  // would skip entirely.
  const std::string slow = "\"convergence.e2e.seconds\": " +
                           Hist(100, 0.1, 1.0, 3.5);
  BenchDiff equal = DiffMetrics(Snapshot("", "", slow), Snapshot("", "", slow));
  EXPECT_TRUE(equal.regression);
  ASSERT_FALSE(equal.deltas.empty());
  EXPECT_EQ(equal.deltas[0].metric, "histogram convergence.e2e.seconds p99");
  EXPECT_NE(equal.deltas[0].note.find("band"), std::string::npos);

  // Under the 2s default ceiling: clean, even against a faster before.
  const std::string fast = "\"convergence.e2e.seconds\": " +
                           Hist(100, 0.1, 0.5, 1.5);
  EXPECT_FALSE(
      DiffMetrics(Snapshot("", "", fast), Snapshot("", "", fast)).regression);

  // The ceiling is tunable (sdxmon diff --max-convergence-p99).
  BenchDiffOptions loose;
  loose.max_convergence_p99_seconds = 5.0;
  EXPECT_FALSE(DiffMetrics(Snapshot("", "", slow), Snapshot("", "", slow),
                           loose)
                   .regression);
  BenchDiffOptions strict;
  strict.max_convergence_p99_seconds = 1.0;
  EXPECT_TRUE(DiffMetrics(Snapshot("", "", fast), Snapshot("", "", fast),
                          strict)
                  .regression);

  // Non-convergence histograms keep ratio-only semantics: a huge-but-
  // stable p99 elsewhere is not flagged.
  const std::string other = "\"compile.seconds\": " + Hist(100, 1.0, 2.0, 9.0);
  EXPECT_FALSE(DiffMetrics(Snapshot("", "", other), Snapshot("", "", other))
                   .regression);
}

TEST(BenchDiffTest, ConvergenceOverheadGaugeCarriesAHardBudget) {
  // convergence.overhead_ratio mirrors telemetry.overhead_ratio: absolute
  // budget on the after-side, exact-name gauge only.
  BenchDiff over = DiffMetrics(
      Snapshot("", "\"convergence.overhead_ratio\": 1.01", ""),
      Snapshot("", "\"convergence.overhead_ratio\": 1.09", ""));
  EXPECT_TRUE(over.regression);
  ASSERT_EQ(over.deltas.size(), 1u);
  EXPECT_NE(over.deltas[0].note.find("budget"), std::string::npos);

  EXPECT_FALSE(DiffMetrics(
                   Snapshot("", "\"convergence.overhead_ratio\": 1.06", ""),
                   Snapshot("", "\"convergence.overhead_ratio\": 1.02", ""))
                   .regression);

  BenchDiffOptions loose;
  loose.max_convergence_overhead = 1.20;
  EXPECT_FALSE(DiffMetrics(
                   Snapshot("", "\"convergence.overhead_ratio\": 1.01", ""),
                   Snapshot("", "\"convergence.overhead_ratio\": 1.09", ""),
                   loose)
                   .regression);

  // Companions (off/on seconds, overhead_ns) stay informational.
  EXPECT_FALSE(
      DiffMetrics(Snapshot("", "\"convergence.overhead_ns\": 50", ""),
                  Snapshot("", "\"convergence.overhead_ns\": 500", ""))
          .regression);
}

TEST(BenchDiffTest, MembershipChangesAreReportedNotFlagged) {
  BenchDiff diff = DiffMetrics(Snapshot("\"old\": 1", "", ""),
                               Snapshot("\"new\": 1", "", ""));
  EXPECT_FALSE(diff.regression);
  ASSERT_EQ(diff.only_before.size(), 1u);
  ASSERT_EQ(diff.only_after.size(), 1u);
  EXPECT_EQ(diff.only_before[0], "counter old");
  EXPECT_EQ(diff.only_after[0], "counter new");
}

TEST(BenchDiffTest, RejectsNonSnapshotDocuments) {
  EXPECT_THROW(DiffMetrics(json::Parse("{}"), json::Parse("{}")),
               std::runtime_error);
  EXPECT_THROW(DiffMetrics(json::Parse("{\"counters\": {}}"),
                           json::Parse("{\"counters\": {}}")),
               std::runtime_error);
}

TEST(BenchDiffTest, RealSnapshotRoundTripSelfDiffsClean) {
  MetricsRegistry registry;
  registry.GetCounter("rs.updates").Increment(12345);
  registry.GetGauge("groups").Set(37.5);
  Histogram& h = registry.GetHistogram("compile.seconds");
  for (int i = 1; i <= 100; ++i) h.Observe(i * 1e-4);
  const std::string exported = registry.Snapshot().ToJson();
  json::Value doc = json::Parse(exported);  // the exporter emits valid JSON
  EXPECT_DOUBLE_EQ(doc.Find("counters")->NumberAt("rs.updates"), 12345.0);
  BenchDiff diff = DiffMetrics(doc, doc);
  EXPECT_FALSE(diff.regression);
  EXPECT_TRUE(diff.deltas.empty());
}

}  // namespace
}  // namespace sdx::obs
