// Packet-level equivalence oracle for the compilation pipeline.
//
// The parallel and incremental FullCompile paths (DESIGN.md §8) must be
// observationally identical to a sequential from-scratch compile. The
// oracle enforces that at the only level that matters — packets: it drives
// deterministically sampled probe packets (workload::PacketSampler) through
// two runtimes holding the same control-plane state and asserts, per
// packet, identical
//   * emissions — the multiset of (output port, post-rewrite header); the
//     fabric rewrites destination MACs to the receiving router's real MAC
//     on delivery, so emissions are independent of which VNH/VMAC a
//     compilation happened to allocate;
//   * drops — the per-reason delta of DropCounts() across the injection.
//
// Every result carries the sampler seed; a failure report embeds it so any
// mismatch replays exactly (set the same seed, rerun).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "sdx/runtime.h"
#include "workload/policy_gen.h"
#include "workload/topology_gen.h"
#include "workload/traffic_gen.h"

namespace sdx::oracle {

struct OracleResult {
  bool equivalent = true;
  std::uint64_t seed = 0;
  std::size_t packets_checked = 0;
  std::size_t mismatches = 0;
  // Human-readable description of the first few mismatches, including the
  // seed and the offending packet, for replay.
  std::string report;
};

// Samples `count` packets with `seed` and compares `lhs` vs `rhs` (both
// must already be compiled). Stops recording detail after a handful of
// mismatches but always checks every packet.
OracleResult ComparePacketBehavior(core::SdxRuntime& lhs,
                                   core::SdxRuntime& rhs,
                                   const workload::IxpScenario& scenario,
                                   std::uint64_t seed, std::size_t count);

// Convenience: a runtime configured with `options`, loaded with the
// scenario + policies, and compiled. The returned runtime has had exactly
// one FullCompile.
std::unique_ptr<core::SdxRuntime> BuildRuntime(
    const workload::IxpScenario& scenario,
    const workload::GeneratedPolicies& policies,
    const core::RuntimeOptions& options);

}  // namespace sdx::oracle
