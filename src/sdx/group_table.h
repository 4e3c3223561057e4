// The annotated prefix-group table shared by the runtime and the composer.
//
// After FEC computation (fec.h) the runtime annotates each group with its
// (VNH, VMAC) binding and its default next-hop participant, and indexes
// groups by prefix and by behavior-set membership. This table is the
// interface between control-plane state (BGP + policies) and the compiled
// data plane: the route server advertises group VNHs, the ARP responder
// answers them with group VMACs, and the composer emits rules matching
// group VMACs.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/route.h"
#include "net/ipv4.h"
#include "sdx/fec.h"
#include "sdx/vnh.h"

namespace sdx::core {

// (sender AS, outbound-clause index) -> behavior-set id used during FEC
// computation. Owned by the runtime; the composer consumes it to find each
// clause's eligible groups.
using ClauseSetIds = std::map<std::pair<bgp::AsNumber, int>, std::uint32_t>;

struct AnnotatedGroup {
  GroupId id = 0;
  std::vector<net::IPv4Prefix> prefixes;
  VnhBinding binding;
  // The route server's best next-hop participant for this group's prefixes
  // (identical for all of them by construction — the default-next-hop
  // behavior set is part of the FEC signature). 0 when unreachable.
  bgp::AsNumber best_hop = 0;
  // Senders whose own best route for this group differs from `best_hop`
  // (e.g. the best-hop announcer itself, which cannot use its own route, or
  // a receiver the best route is not exported to). The composer emits
  // per-sender exception rules for these; every other sender shares the
  // global default rule. Uniform across the group's prefixes because each
  // receiver's view is part of the FEC signature.
  std::map<bgp::AsNumber, bgp::AsNumber> per_sender_best;
  std::vector<std::uint32_t> member_of;  // behavior-set ids (sorted)
  // Content fingerprint over (prefixes, binding, best_hop, per_sender_best),
  // computed by the runtime after annotation. Two groups with equal sigs
  // yield identical compiled rules, so the incremental composer folds the
  // ordered sig list of each clause's groups into its block fingerprint:
  // any change in membership, binding, or routing dirties the block.
  std::uint64_t sig = 0;
};

struct GroupTable {
  std::vector<AnnotatedGroup> groups;
  std::unordered_map<net::IPv4Prefix, GroupId> group_of;
  // behavior-set id -> groups contained in that set.
  std::unordered_map<std::uint32_t, std::vector<GroupId>> groups_in_set;

  const AnnotatedGroup* FindByPrefix(const net::IPv4Prefix& prefix) const {
    auto it = group_of.find(prefix);
    if (it == group_of.end()) return nullptr;
    return &groups[it->second];
  }

  void Clear() {
    groups.clear();
    group_of.clear();
    groups_in_set.clear();
  }
};

}  // namespace sdx::core
