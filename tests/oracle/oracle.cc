#include "oracle.h"

#include <algorithm>
#include <array>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

namespace sdx::oracle {

namespace {

// One observable outcome of an injection: sorted emission descriptions plus
// the per-reason drop delta.
struct Observation {
  std::vector<std::string> emissions;
  std::array<std::uint64_t, obs::kDropReasonCount> drop_delta{};

  friend bool operator==(const Observation&, const Observation&) = default;
};

Observation Inject(core::SdxRuntime& runtime,
                   const workload::SampledPacket& sample) {
  const obs::DropCounters before = runtime.DropCounts();
  net::Packet packet;
  packet.header = sample.header;
  packet.size_bytes = 64;
  auto emissions = runtime.InjectFromParticipant(sample.from, packet);
  const obs::DropCounters after = runtime.DropCounts();

  Observation out;
  out.emissions.reserve(emissions.size());
  for (const auto& emission : emissions) {
    std::ostringstream line;
    line << "port=" << emission.out_port << " "
         << emission.packet.header.ToString();
    out.emissions.push_back(line.str());
  }
  std::sort(out.emissions.begin(), out.emissions.end());
  for (std::size_t i = 0; i < obs::kDropReasonCount; ++i) {
    const obs::DropReason reason = obs::kAllDropReasons[i];
    out.drop_delta[i] = after.count(reason) - before.count(reason);
  }
  return out;
}

void Describe(std::ostream& os, const Observation& observation) {
  if (observation.emissions.empty()) {
    os << "    (no emissions)\n";
  }
  for (const auto& emission : observation.emissions) {
    os << "    " << emission << "\n";
  }
  for (std::size_t i = 0; i < obs::kDropReasonCount; ++i) {
    if (observation.drop_delta[i] != 0) {
      os << "    drop " << obs::DropReasonName(obs::kAllDropReasons[i])
         << " +" << observation.drop_delta[i] << "\n";
    }
  }
}

}  // namespace

OracleResult ComparePacketBehavior(core::SdxRuntime& lhs,
                                   core::SdxRuntime& rhs,
                                   const workload::IxpScenario& scenario,
                                   std::uint64_t seed, std::size_t count) {
  constexpr std::size_t kMaxReported = 5;
  OracleResult result;
  result.seed = seed;
  workload::PacketSampler sampler(scenario, seed);
  std::ostringstream report;
  for (std::size_t i = 0; i < count; ++i) {
    const workload::SampledPacket sample = sampler.Next();
    const Observation a = Inject(lhs, sample);
    const Observation b = Inject(rhs, sample);
    ++result.packets_checked;
    if (a == b) continue;
    ++result.mismatches;
    result.equivalent = false;
    if (result.mismatches > kMaxReported) continue;
    report << "packet " << i << " (sampler seed " << seed
           << "): from AS" << sample.from << " "
           << sample.header.ToString() << "\n  lhs:\n";
    Describe(report, a);
    report << "  rhs:\n";
    Describe(report, b);
  }
  if (!result.equivalent) {
    report << result.mismatches << "/" << result.packets_checked
           << " packets diverged; replay with sampler seed " << seed << "\n";
    result.report = report.str();
  }
  return result;
}

std::unique_ptr<core::SdxRuntime> BuildRuntime(
    const workload::IxpScenario& scenario,
    const workload::GeneratedPolicies& policies,
    const core::RuntimeOptions& options) {
  auto runtime = std::make_unique<core::SdxRuntime>();
  runtime->Configure(options);
  workload::Install(*runtime, scenario, policies);
  runtime->FullCompile();
  return runtime;
}

}  // namespace sdx::oracle
