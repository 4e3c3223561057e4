// TimeSeries ring + TimeSeriesSampler (DESIGN.md §12): overwrite
// semantics, the export JSON schema (parsed back with obs/json.h), the
// injected sampler clock, and the background thread sampling a live
// runtime's CollectTimeSeriesValues producer while the control thread
// keeps applying updates — this test is tier1, so the sanitizer matrix
// (TSan included) exercises the producer's thread-safety contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/timeseries.h"
#include "sdx/runtime.h"

namespace sdx::obs {
namespace {

TimeSeriesSample Sample(double t, double value) {
  TimeSeriesSample s;
  s.seconds = t;
  s.values["v"] = value;
  return s;
}

TEST(TimeSeriesTest, RingOverwritesOldestFirst) {
  TimeSeries series(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    series.Append(Sample(static_cast<double>(i), static_cast<double>(i)));
  }
  EXPECT_EQ(series.capacity(), 4u);
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.total_appended(), 10u);
  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest surviving first: 6, 7, 8, 9.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(samples[i].seconds, 6.0 + static_cast<double>(i));
    EXPECT_DOUBLE_EQ(samples[i].values.at("v"), 6.0 + static_cast<double>(i));
  }
}

TEST(TimeSeriesTest, ToJsonRoundTripsThroughParser) {
  TimeSeries series(8);
  series.Append(Sample(0.5, 1.0));
  TimeSeriesSample second;
  second.seconds = 1.0;
  second.values["convergence.e2e.p99"] = 0.25;
  second.values["health.degraded"] = 1.0;
  series.Append(second);

  const json::Value doc = json::Parse(series.ToJson(/*interval_seconds=*/0.05));
  EXPECT_DOUBLE_EQ(doc.NumberAt("interval_seconds"), 0.05);
  const auto* samples = doc.Find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->array.size(), 2u);
  EXPECT_DOUBLE_EQ(samples->array[0].NumberAt("t"), 0.5);
  const auto* values = samples->array[1].Find("values");
  ASSERT_NE(values, nullptr);
  EXPECT_DOUBLE_EQ(values->NumberAt("convergence.e2e.p99"), 0.25);
  EXPECT_DOUBLE_EQ(values->NumberAt("health.degraded"), 1.0);
}

TEST(TimeSeriesTest, EmptySeriesExportsEmptySampleArray) {
  TimeSeries series(4);
  const json::Value doc = json::Parse(series.ToJson());
  const auto* samples = doc.Find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_TRUE(samples->array.empty());
}

TEST(TimeSeriesSamplerTest, SampleNowUsesInjectedClockAndProducer) {
  TimeSeries series(8);
  std::atomic<int> calls{0};
  TimeSeriesSampler sampler(
      &series,
      [&calls] {
        const int n = calls.fetch_add(1) + 1;
        return std::map<std::string, double>{
            {"calls", static_cast<double>(n)}};
      });
  double now = 10.0;
  sampler.clock().SetClockForTest([&now] { return now; });

  sampler.SampleNow();
  now = 20.0;
  sampler.SampleNow();

  const auto samples = series.Samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].seconds, 10.0);
  EXPECT_DOUBLE_EQ(samples[0].values.at("calls"), 1.0);
  EXPECT_DOUBLE_EQ(samples[1].seconds, 20.0);
  EXPECT_FALSE(sampler.running());  // SampleNow never starts the thread
}

TEST(TimeSeriesSamplerTest, BackgroundThreadSamplesUntilStopped) {
  TimeSeries series(64);
  TimeSeriesSampler::Options options;
  options.interval_seconds = 0.001;
  TimeSeriesSampler sampler(
      &series, [] { return std::map<std::string, double>{{"x", 1.0}}; },
      options);
  sampler.Start();
  sampler.Start();  // idempotent
  EXPECT_TRUE(sampler.running());
  // Deadline-bounded wait for a few background samples.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (series.total_appended() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(series.total_appended(), 3u);
  const std::uint64_t after_stop = series.total_appended();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(series.total_appended(), after_stop);
}

// The end-to-end wiring: a live runtime's sampler thread reading
// CollectTimeSeriesValues while the control thread applies updates.
TEST(RuntimeTimeSeriesTest, SamplerRunsAgainstLiveRuntime) {
  core::SdxRuntime runtime;
  constexpr core::AsNumber kA = 100;
  constexpr core::AsNumber kB = 200;
  runtime.AddParticipant(kA, 1);
  runtime.AddParticipant(kB, 2);
  const auto prefix = [](int i) {
    return net::IPv4Prefix(
        net::IPv4Address(10, static_cast<uint8_t>(i), 0, 0), 16);
  };
  for (int i = 1; i <= 4; ++i) {
    runtime.AnnouncePrefix(kB, prefix(i), {kB, 900});
  }
  runtime.FullCompile();

  TelemetryOptions telemetry = runtime.telemetry_options();
  telemetry.convergence.enabled = true;
  telemetry.timeseries = {
      .enabled = true, .interval_seconds = 0.001, .capacity = 256};
  runtime.ConfigureTelemetry(telemetry);
  ASSERT_NE(runtime.timeseries(), nullptr);
  ASSERT_TRUE(runtime.timeseries_sampler()->running());

  // Control thread keeps the runtime busy while the sampler races reads.
  for (std::uint32_t round = 0; round < 50; ++round) {
    for (int i = 1; i <= 4; ++i) {
      bgp::Announcement a;
      a.from_as = kB;
      a.route.prefix = prefix(i);
      a.route.next_hop = runtime.RouterIp(kB);
      a.route.as_path = {kB};
      a.route.local_pref = 1000 + round;
      runtime.EnqueueUpdate(bgp::BgpUpdate{a});
    }
    runtime.Flush();
    if (round % 10 == 0) runtime.PublishHealth();
  }
  runtime.PublishHealth();
  runtime.SampleTimeSeriesNow();
  telemetry.timeseries.enabled = false;
  runtime.ConfigureTelemetry(telemetry);
  EXPECT_EQ(runtime.timeseries_sampler(), nullptr);

  // Samples survive turning the time series off; the explicit final sample
  // carries the whole producer surface.
  const auto samples = runtime.timeseries()->Samples();
  ASSERT_FALSE(samples.empty());
  const auto& last = samples.back().values;
  EXPECT_EQ(last.count("batch.count"), 1u);
  EXPECT_EQ(last.count("batch.depth.p95"), 1u);
  EXPECT_EQ(last.count("health.degraded"), 1u);
  EXPECT_EQ(last.count("drop.total"), 1u);
  EXPECT_EQ(last.count("convergence.e2e.p99"), 1u);
  EXPECT_GT(last.at("convergence.tracked"), 0.0);

  // Re-enabling replaces the series with a fresh ring.
  telemetry.timeseries = {
      .enabled = true, .interval_seconds = 0.001, .capacity = 7};
  runtime.ConfigureTelemetry(telemetry);
  telemetry.timeseries.enabled = false;
  runtime.ConfigureTelemetry(telemetry);
  EXPECT_EQ(runtime.timeseries()->capacity(), 7u);
}

}  // namespace
}  // namespace sdx::obs
