// The consolidated runtime-options API: Configure / ConfigureTelemetry
// must apply the whole options value atomically, return the previous
// value (round-trip), journal their change events, and keep the
// deprecated Set*/Enable*/Disable* wrappers behaving as thin delegates.
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

std::size_t CountEventsOfType(const SdxRuntime& runtime,
                              JournalEventType type) {
  if (runtime.journal() == nullptr) return 0;
  std::size_t count = 0;
  for (const auto& event : runtime.journal()->Events()) {
    if (event.type == type) ++count;
  }
  return count;
}

RuntimeOptions NonDefaultOptions() {
  RuntimeOptions options;
  options.compile.parallel = false;
  options.compile.incremental = false;
  options.batch_window = 7;
  options.backend = dataplane::FlowTable::Backend::kLinear;
  options.vmac_encoding = VmacEncoding::kEncoded;
  return options;
}

TEST(RuntimeOptions, ConfigureRoundTripsPreviousValue) {
  SdxRuntime runtime;
  const RuntimeOptions defaults = runtime.runtime_options();
  EXPECT_TRUE(defaults.compile.parallel);
  EXPECT_TRUE(defaults.compile.incremental);
  EXPECT_EQ(defaults.batch_window, 0u);
  EXPECT_EQ(defaults.backend, dataplane::FlowTable::Backend::kCompiled);
  EXPECT_EQ(defaults.vmac_encoding, VmacEncoding::kAuto);

  const RuntimeOptions custom = NonDefaultOptions();
  EXPECT_EQ(runtime.Configure(custom), defaults);
  EXPECT_EQ(runtime.runtime_options(), custom);
  EXPECT_EQ(runtime.batch_window(), 7u);
  EXPECT_EQ(runtime.compile_options(), custom.compile);
  EXPECT_EQ(runtime.vmac_encoding(), VmacEncoding::kEncoded);
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
  // arg0 = new packed bits {compile.parallel, compile.incremental<<1,
  // encoded<<3, linear_backend<<4}; bit 2 is unused and stays 0; arg2 = new
  // batch window.
  EXPECT_EQ(event->arg0, (1ull << 3) | (1ull << 4));
  EXPECT_EQ(event->arg2, 7u);
  // Old bits: parallel + incremental set, bit 2 clear (the encoded bit
  // depends on what kAuto resolves to in this environment).
  EXPECT_EQ(event->arg1 & 0b111u, 0b011u);
}

TEST(RuntimeOptions, DeprecatedSettersDelegateThroughConfigure) {
  SdxRuntime runtime;
  const std::size_t before =
      CountEventsOfType(runtime, JournalEventType::kRuntimeOptionsChanged);

  runtime.SetBatchWindow(5);
  EXPECT_EQ(runtime.runtime_options().batch_window, 5u);
  runtime.SetDataPlaneBackend(dataplane::FlowTable::Backend::kLinear);
  EXPECT_EQ(runtime.runtime_options().backend,
            dataplane::FlowTable::Backend::kLinear);

  EXPECT_EQ(
      CountEventsOfType(runtime, JournalEventType::kRuntimeOptionsChanged),
      before + 2);

  // The sub-option setters keep their own events alongside.
  CompileOptions compile;
  compile.parallel = false;
  compile.incremental = false;
  runtime.SetCompileOptions(compile);
  EXPECT_EQ(runtime.runtime_options().compile, compile);
}

TEST(RuntimeOptions, EncodingTakesEffectAtNextFullCompile) {
  SdxRuntime runtime;
  runtime.AddParticipant(100, 1);
  runtime.AddParticipant(200, 1);
  runtime.AnnouncePrefix(200, net::IPv4Prefix(net::IPv4Address(10, 1, 0, 0),
                                              16));
  OutboundClause clause;
  clause.match = policy::Predicate::DstPort(80);
  clause.to = 200;
  runtime.SetOutboundPolicy(100, {clause});

  RuntimeOptions options = runtime.runtime_options();
  options.vmac_encoding = VmacEncoding::kEncoded;
  runtime.Configure(options);
  EXPECT_FALSE(runtime.encoded_vmacs_active());  // not compiled yet
  runtime.FullCompile();
  EXPECT_TRUE(runtime.encoded_vmacs_active());
  EXPECT_EQ(runtime.roster().size(), 2u);
  EXPECT_GT(runtime.arp().encoded_size(), 0u);

  options.vmac_encoding = VmacEncoding::kLegacy;
  runtime.Configure(options);
  runtime.FullCompile();
  EXPECT_FALSE(runtime.encoded_vmacs_active());
  EXPECT_EQ(runtime.arp().encoded_size(), 0u);
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

TEST(TelemetryOptions, WrappersKeepOptionsInSync) {
  SdxRuntime runtime;
  runtime.EnableFlowTelemetry();
  EXPECT_TRUE(runtime.telemetry_options().flow.enabled);
  runtime.DisableFlowTelemetry();
  EXPECT_FALSE(runtime.telemetry_options().flow.enabled);

  runtime.EnableJournal(512);
  EXPECT_TRUE(runtime.telemetry_options().journal.enabled);
  EXPECT_EQ(runtime.telemetry_options().journal.capacity, 512u);
  runtime.DisableJournal();
  EXPECT_FALSE(runtime.telemetry_options().journal.enabled);

  runtime.EnableConvergenceTracking(64);
  EXPECT_TRUE(runtime.telemetry_options().convergence.enabled);
  EXPECT_EQ(runtime.telemetry_options().convergence.max_pending, 64u);
  runtime.DisableConvergenceTracking();
  EXPECT_FALSE(runtime.telemetry_options().convergence.enabled);

  runtime.EnableTimeSeries(10.0, 16);
  EXPECT_TRUE(runtime.telemetry_options().timeseries.enabled);
  EXPECT_EQ(runtime.telemetry_options().timeseries.capacity, 16u);
  runtime.DisableTimeSeries();
  EXPECT_FALSE(runtime.telemetry_options().timeseries.enabled);
}

}  // namespace
}  // namespace sdx::core
