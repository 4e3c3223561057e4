// Participant-policy generator (§6.1 "Emulating realistic AS policies at
// the IXP").
//
// Mirrors the paper's assignment:
//   * the top 15% of eyeball ASes, the top 5% of transit ASes, and a random
//     5% of content ASes (by announced-prefix count) install policies;
//   * content providers install outbound application-specific-peering
//     policies toward 3 top eyeball networks, plus one inbound policy
//     matching one header field;
//   * eyeball networks install inbound policies (one random header field)
//     for half of the content providers, and no outbound policies;
//   * transit networks install outbound policies on one prefix group (a
//     destination-prefix restriction plus one header field) for half of the
//     top eyeballs, and inbound policies proportional to the number of top
//     content providers.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sdx/participant.h"
#include "sdx/runtime.h"
#include "workload/topology_gen.h"

namespace sdx::workload {

struct PolicyParams {
  double eyeball_top_fraction = 0.15;
  double transit_top_fraction = 0.05;
  double content_fraction = 0.05;
  int content_outbound_targets = 3;
  // Each content outbound clause applies to a random sample of this
  // fraction of the target's announced prefixes (the §6.2 methodology of
  // applying SDX policies to a random prefix subset p_x; distinct per-
  // clause subsets are what create distinct forwarding equivalence
  // classes). 1.0 = clauses cover everything the target exports.
  double clause_prefix_fraction = 0.5;
  // When > 0, the largest transit participant additionally installs one
  // unrestricted application-specific-peering clause toward each of the top
  // `coverage_fanout` announcers. Each target's export set then becomes a
  // behavior set of the FEC computation, which reproduces the
  // announcement-driven prefix-group diversity of Figure 6 inside the full
  // runtime — the knob the Figure 7/8 sweeps use to move along the
  // prefix-group axis.
  int coverage_fanout = 0;
  // When > 0, caps how many coverage clauses any single participant ends up
  // holding: the same top-transits × coverage_fanout clause stream is dealt
  // out over successive members (largest announcers first) instead of
  // concentrating on the top transits alone. The group diversity of
  // `coverage_fanout` is unchanged — every top target's export set is still
  // a behavior set — but no single sender collects more clauses than the
  // cap, which is closer to real IXPs, where many participants each peer
  // with a handful of targets. The cap counts a sender's whole outbound
  // clause list, including the §6.1 policies assigned above. 0 = no cap
  // (coverage stays on the top transits).
  int coverage_max_per_sender = 0;
  // Explicit 64-bit seed (workload/seed.h) — deterministic, replayable.
  std::uint64_t seed = 7;
};

struct GeneratedPolicies {
  std::map<bgp::AsNumber, std::vector<core::OutboundClause>> outbound;
  std::map<bgp::AsNumber, std::vector<core::InboundClause>> inbound;

  std::size_t outbound_clause_count() const;
  std::size_t inbound_clause_count() const;
  std::size_t participants_with_policies() const;
};

class PolicyGenerator {
 public:
  explicit PolicyGenerator(PolicyParams params) : params_(params) {}

  GeneratedPolicies Generate(const IxpScenario& scenario) const;

 private:
  PolicyParams params_;
};

// Loads a scenario (participants + announcements) and its policies into a
// runtime. Does not compile; call runtime.FullCompile() afterwards.
void Install(core::SdxRuntime& runtime, const IxpScenario& scenario,
             const GeneratedPolicies& policies);

}  // namespace sdx::workload
