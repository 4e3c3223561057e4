// The consolidated runtime-options API: Configure / ConfigureTelemetry
// must apply the whole options value atomically, return the previous
// value (round-trip), and journal their change events.
#include <gtest/gtest.h>

#include <optional>

#include "obs/journal.h"
#include "sdx/options.h"
#include "sdx/runtime.h"

namespace sdx::core {
namespace {

using obs::JournalEventType;

std::optional<obs::JournalEvent> LastEventOfType(const SdxRuntime& runtime,
                                                 JournalEventType type) {
  if (runtime.journal() == nullptr) return std::nullopt;
  std::optional<obs::JournalEvent> found;
  for (const auto& event : runtime.journal()->Events()) {
    if (event.type == type) found = event;
  }
  return found;
}

RuntimeOptions NonDefaultOptions() {
  RuntimeOptions options;
  options.compile.incremental = false;
  options.compile.threads = 1;
  options.batch_window = 7;
  options.backend = dataplane::FlowTable::Backend::kLinear;
  return options;
}

TEST(RuntimeOptions, ConfigureRoundTripsPreviousValue) {
  SdxRuntime runtime;
  const RuntimeOptions defaults = runtime.runtime_options();
  EXPECT_TRUE(defaults.compile.incremental);
  EXPECT_EQ(defaults.compile.threads, 0);
  EXPECT_EQ(defaults.batch_window, 0u);
  EXPECT_EQ(defaults.backend, dataplane::FlowTable::Backend::kCompiled);

  const RuntimeOptions custom = NonDefaultOptions();
  EXPECT_EQ(runtime.Configure(custom), defaults);
  EXPECT_EQ(runtime.runtime_options(), custom);
  EXPECT_EQ(runtime.batch_window(), 7u);
  EXPECT_EQ(runtime.compile_options(), custom.compile);
  // And back: the returned value restores the starting state exactly.
  EXPECT_EQ(runtime.Configure(defaults), custom);
  EXPECT_EQ(runtime.runtime_options(), defaults);
}

TEST(RuntimeOptions, ConfigureJournalsChangeEvent) {
  SdxRuntime runtime;
  runtime.Configure(NonDefaultOptions());
  const auto event =
      LastEventOfType(runtime, JournalEventType::kRuntimeOptionsChanged);
  ASSERT_TRUE(event);
  // arg0 = new packed bits {compile.incremental<<1, linear_backend<<4};
  // bits 0, 2 and 3 are unused and stay 0; arg2 = new batch window.
  EXPECT_EQ(event->arg0, 1ull << 4);
  EXPECT_EQ(event->arg2, 7u);
  // Old bits: incremental set, compiled backend.
  EXPECT_EQ(event->arg1, 0b010u);
}

TEST(RuntimeOptions, TurningIncrementalOffForcesFromScratchCompile) {
  SdxRuntime runtime;
  runtime.AddParticipant(100, 1);
  runtime.AddParticipant(200, 1);
  runtime.AnnouncePrefix(200, net::IPv4Prefix(net::IPv4Address(10, 1, 0, 0),
                                              16));
  runtime.FullCompile();
  EXPECT_TRUE(runtime.FullCompile().incremental);

  RuntimeOptions options = runtime.runtime_options();
  options.compile.incremental = false;
  runtime.Configure(options);
  for (int i = 0; i < 2; ++i) {
    const CompileStats stats = runtime.FullCompile();
    EXPECT_FALSE(stats.incremental);
    EXPECT_EQ(stats.blocks_reused, 0u);  // no composed block is memoized
    EXPECT_GT(stats.blocks_recompiled, 0u);
  }

  // The from-scratch compile rebuilt the dirty-tracking state the next
  // one reuses.
  options.compile.incremental = true;
  runtime.Configure(options);
  EXPECT_TRUE(runtime.FullCompile().incremental);
  EXPECT_GT(runtime.FullCompile().blocks_reused, 0u);
}

TEST(TelemetryOptions, ConfigureRoundTripsPreviousValue) {
  SdxRuntime runtime;
  const obs::TelemetryOptions defaults = runtime.telemetry_options();
  EXPECT_TRUE(defaults.journal.enabled);
  EXPECT_FALSE(defaults.flow.enabled);
  EXPECT_FALSE(defaults.convergence.enabled);
  EXPECT_FALSE(defaults.timeseries.enabled);

  obs::TelemetryOptions custom;
  custom.journal.capacity = 1024;
  custom.flow.enabled = true;
  custom.convergence.enabled = true;
  EXPECT_EQ(runtime.ConfigureTelemetry(custom), defaults);
  EXPECT_EQ(runtime.telemetry_options(), custom);
  EXPECT_NE(runtime.flow_recorder(), nullptr);
  EXPECT_NE(runtime.convergence(), nullptr);

  EXPECT_EQ(runtime.ConfigureTelemetry(defaults), custom);
  EXPECT_EQ(runtime.flow_recorder(), nullptr);
  EXPECT_EQ(runtime.convergence(), nullptr);
}

TEST(TelemetryOptions, ConfigureIsIdempotentPerSubsystem) {
  SdxRuntime runtime;
  obs::TelemetryOptions options;
  options.flow.enabled = true;
  runtime.ConfigureTelemetry(options);
  obs::FlowRecorder* recorder = runtime.flow_recorder();
  obs::Journal* journal = runtime.journal();
  ASSERT_NE(recorder, nullptr);

  // Re-applying the same value must not recreate any subsystem.
  runtime.ConfigureTelemetry(options);
  EXPECT_EQ(runtime.flow_recorder(), recorder);
  EXPECT_EQ(runtime.journal(), journal);

  // Changing one subsystem leaves the others alone.
  options.convergence.enabled = true;
  runtime.ConfigureTelemetry(options);
  EXPECT_EQ(runtime.flow_recorder(), recorder);
  EXPECT_EQ(runtime.journal(), journal);
  EXPECT_NE(runtime.convergence(), nullptr);
}

TEST(TelemetryOptions, ConfigureJournalsChangeEvent) {
  SdxRuntime runtime;
  obs::TelemetryOptions options;
  options.flow.enabled = true;
  runtime.ConfigureTelemetry(options);
  const auto event =
      LastEventOfType(runtime, JournalEventType::kTelemetryOptionsChanged);
  ASSERT_TRUE(event);
  // arg0 = new packed enabled bits {journal, flow<<1, convergence<<2,
  // timeseries<<3}; arg1 = old; arg2 = journal capacity.
  EXPECT_EQ(event->arg0, 0b0011u);
  EXPECT_EQ(event->arg1, 0b0001u);
  EXPECT_EQ(event->arg2, obs::Journal::kDefaultCapacity);
}

TEST(TelemetryOptions, TimeSeriesSurvivesConvergenceReplacement) {
  SdxRuntime runtime;
  obs::TelemetryOptions options;
  options.convergence.enabled = true;
  options.timeseries.enabled = true;
  options.timeseries.interval_seconds = 10.0;  // effectively manual sampling
  runtime.ConfigureTelemetry(options);
  ASSERT_NE(runtime.timeseries_sampler(), nullptr);
  ASSERT_NE(runtime.convergence(), nullptr);

  // Replacing the tracker the sampler reads must stop the sampler first
  // and restart it after — it ends up running against the new state.
  options.convergence.max_pending = 128;
  runtime.ConfigureTelemetry(options);
  EXPECT_NE(runtime.timeseries_sampler(), nullptr);
  runtime.SampleTimeSeriesNow();

  // Disabling the time series stops the sampler but keeps samples readable.
  options.timeseries.enabled = false;
  runtime.ConfigureTelemetry(options);
  EXPECT_EQ(runtime.timeseries_sampler(), nullptr);
  EXPECT_NE(runtime.timeseries(), nullptr);
}

}  // namespace
}  // namespace sdx::core
