// Transformation 4 of §4.1 — composing all participants' policies into one
// SDX policy — with the §4.3.1 optimizations, plus the unoptimized
// "faithful" composition used for validation and ablation.
//
// Scalable path (Compose):
//   * Override rules: per sender A, its outbound clauses are restricted by
//     isolation (A's in-ports) and BGP consistency (the VMACs of the
//     eligible prefix groups), composed in parallel, and sequenced ONLY
//     against the inbound blocks of the participants A actually targets —
//     the "most SDX policies only concern a subset of the participants"
//     optimization.
//   * Default rules: one fabric-wide block keyed purely on dst MAC (VMAC →
//     best-hop participant, real port MAC → port owner), shared by every
//     sender, sequenced once against all inbound blocks.
//   * The final classifier stacks override blocks above the default block —
//     first-match-wins realizes the paper's if_(override, default) without
//     compiling a guard — and blocks from different senders are disjoint by
//     construction (distinct in-ports), so they concatenate without any
//     cross-product ("most SDX policies are disjoint").
//   * Each participant's inbound block compiles once per generation and is
//     shared by every sender that targets it, by the default block, and by
//     every fast-path slice until the next full compile ("many policy
//     idioms appear more than once").
//
// Faithful path (BuildFaithfulPolicy): literally (ΣPi'') >> (ΣPi'') over
// per-peer virtual ports with destination-prefix BGP filters and real
// next-hop MACs — no VNH optimization. Exponential-ish; small inputs only.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "policy/classifier.h"
#include "policy/compile.h"
#include "rs/route_server.h"
#include "sdx/group_table.h"
#include "sdx/participant.h"
#include "sdx/vswitch.h"
#include "util/thread_pool.h"

namespace sdx::core {

// Compiled inbound blocks (ingress-port filter >> delivery), one per
// participant.
using InboundBlocks = std::map<AsNumber, policy::Classifier>;

struct CompiledSdx {
  policy::Classifier classifier;
  // The generation's inbound blocks, kept by the runtime so fast-path
  // slices compose against the same inbound semantics as the installed
  // rules until the next full compile.
  InboundBlocks inbound_blocks;
  std::size_t override_rule_count = 0;
  std::size_t default_rule_count = 0;
};

// Cross-generation memo of composed rule blocks, owned by the runtime and
// threaded through Compose. Each entry stores the FORWARDING rules a block
// contributed to the final classifier, keyed by a fingerprint over
// everything the block was derived from: the sender's policy edit counters
// (participant.h), the target's inbound edit counter, and the ordered
// content signatures of the clause's eligible prefix groups
// (AnnotatedGroup::sig — prefixes, VNH/VMAC binding, routing). A block is
// reused iff its fingerprint matches exactly, so the memo is self-
// validating: it never needs an external reset, even as participants join.
struct BlockMemo {
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::vector<policy::Rule> rules;
  };
  // Service-chain transit block per hosting participant.
  std::map<AsNumber, Entry> chain_blocks;
  // One override block per (sender, outbound-clause index).
  std::map<std::pair<AsNumber, int>, Entry> override_blocks;
  // Per-sender default exceptions + the shared VMAC/port-MAC default block.
  Entry default_block;

  void Clear() {
    chain_blocks.clear();
    override_blocks.clear();
    default_block = Entry{};
  }
};

// How much of a composition was served from the BlockMemo.
struct ComposeOutcome {
  std::size_t blocks_total = 0;
  std::size_t blocks_reused = 0;
  std::size_t blocks_recompiled = 0;
};

class Composer {
 public:
  Composer(const VirtualTopology& topo, const rs::RouteServer& rs)
      : topo_(&topo), rs_(&rs) {}

  // `tracer` (optional) receives child spans for the composition stages:
  // inbound_blocks / override_blocks / default_blocks.
  //
  // `pool` (optional) fans the independent block compilations out across
  // worker threads. The merge is deterministic: blocks land in the final
  // classifier in the same order as the sequential path (chain blocks by
  // hosting AS, override blocks by (sender AS, clause index), exceptions,
  // defaults), so a parallel composition is byte-identical to a sequential
  // one. Spans are only opened on the calling thread.
  //
  // `memo` (optional) enables incremental composition: blocks whose
  // fingerprints match the previous generation are appended from the memo
  // without recompiling. `outcome` (optional) reports the reuse split.
  CompiledSdx Compose(const std::map<AsNumber, Participant>& participants,
                      const GroupTable& groups,
                      const ClauseSetIds& clause_set_ids,
                      obs::Tracer* tracer = nullptr,
                      util::ThreadPool* pool = nullptr,
                      BlockMemo* memo = nullptr,
                      ComposeOutcome* outcome = nullptr) const;

  // Compiles just the rules affected by one prefix group — the §4.3.2 fast
  // path. Produces the group's default rule plus any override rules whose
  // clause covers a prefix of the group, already sequenced with the
  // relevant `inbound_blocks` (those of the last Compose).
  policy::Classifier ComposeForGroup(
      const std::map<AsNumber, Participant>& participants,
      const InboundBlocks& inbound_blocks, const AnnotatedGroup& group,
      const ClauseSetIds& clause_set_ids) const;

  // The unoptimized §4.1 composition (validation/ablation only).
  policy::Policy BuildFaithfulPolicy(
      const std::map<AsNumber, Participant>& participants) const;

 private:
  // Inbound block for one participant: ingress-port filter >> delivery.
  policy::Policy InboundBlockPolicy(const Participant& participant) const;

  // One outbound clause compiled and expanded over the VMACs of its
  // eligible groups: rules (sender in-port ∧ clause match ∧ VMAC_g) →
  // fwd(target ingress), one per group. Disjoint across groups by VMAC, so
  // the expansion is linear — no cross-products.
  policy::Classifier ClauseBlock(AsNumber sender, const OutboundClause& clause,
                                 const std::vector<GroupId>& group_ids,
                                 const GroupTable& groups) const;

  const VirtualTopology* topo_;
  const rs::RouteServer* rs_;
};

}  // namespace sdx::core
