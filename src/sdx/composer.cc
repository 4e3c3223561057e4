#include "sdx/composer.h"

#include <algorithm>

#include "sdx/bgp_filter.h"
#include "sdx/default_fwd.h"
#include "sdx/isolation.h"
#include "util/fingerprint.h"

namespace sdx::core {

using policy::Classifier;
using policy::Compile;
using policy::Policy;
using policy::Predicate;
using policy::Rule;

namespace {

// Appends the forwarding (non-drop) rules of `block` to `out`. Blocks are
// stacked first-match-wins; drop rules inside a block mean "this block does
// not handle the packet", i.e. fall through to the next block.
std::size_t AppendForwardingRules(const Classifier& block,
                                  std::vector<Rule>& out) {
  std::size_t count = 0;
  for (const Rule& rule : block.rules()) {
    if (rule.actions.empty()) continue;
    out.push_back(rule);
    ++count;
  }
  return count;
}

std::vector<Rule> ForwardingRules(const Classifier& block) {
  std::vector<Rule> out;
  AppendForwardingRules(block, out);
  return out;
}

}  // namespace

Policy Composer::InboundBlockPolicy(const Participant& participant) const {
  return Policy::Filter(IngressIsolation(*topo_, participant.as())) >>
         InboundDeliveryPolicy(*topo_, participant);
}

policy::Classifier Composer::ClauseBlock(AsNumber sender,
                                         const OutboundClause& clause,
                                         const std::vector<GroupId>& group_ids,
                                         const GroupTable& groups) const {
  // Compile the guard once (isolation ∧ clause match → target ingress),
  // then expand it per eligible VMAC — the VMACs are mutually disjoint, so
  // this stays linear in the group count.
  Policy base = Policy::Filter(OutboundIsolation(*topo_, sender) &&
                               clause.match) >>
                Policy::Fwd(topo_->IngressPort(clause.to));
  Classifier base_block = Compile(base);
  std::vector<Rule> rules;
  rules.reserve(group_ids.size() * base_block.size() + 1);
  for (GroupId id : group_ids) {
    const net::FieldMatch vmac =
        net::FieldMatch::DstMac(groups.groups[id].binding.vmac);
    for (const Rule& rule : base_block.rules()) {
      if (rule.actions.empty()) continue;
      auto match = rule.match.Intersect(vmac);
      if (!match) continue;
      rules.push_back(Rule{std::move(*match), rule.actions});
    }
  }
  rules.push_back(Rule{net::FieldMatch(), {}});
  Classifier out(std::move(rules));
  out.DedupMatches();
  return out;
}

CompiledSdx Composer::Compose(
    const std::map<AsNumber, Participant>& participants,
    const GroupTable& groups, const ClauseSetIds& clause_set_ids,
    obs::Tracer* tracer, util::ThreadPool* pool, BlockMemo* memo,
    ComposeOutcome* outcome) const {
  CompiledSdx result;
  // Inbound blocks, compiled once per participant and reused for every
  // sender that targets them.
  InboundBlocks& inbound_blocks = result.inbound_blocks;
  {
    obs::TraceSpan span(tracer, "inbound_blocks");
    std::vector<Policy> policies;
    policies.reserve(participants.size());
    for (const auto& [as, participant] : participants) {
      policies.push_back(InboundBlockPolicy(participant));
    }
    std::vector<Classifier> compiled = policy::CompileBatch(policies, pool);
    std::size_t i = 0;
    for (const auto& [as, participant] : participants) {
      inbound_blocks.emplace(as, std::move(compiled[i++]));
    }
  }

  std::vector<Rule> final_rules;
  // Scratch memo when the caller keeps none: every fingerprint misses.
  BlockMemo scratch;
  BlockMemo& blocks = memo != nullptr ? *memo : scratch;
  auto tally = [outcome](bool reused) {
    if (outcome == nullptr) return;
    ++outcome->blocks_total;
    ++(reused ? outcome->blocks_reused : outcome->blocks_recompiled);
  };

  {
    obs::TraceSpan span(tracer, "override_blocks");

    // Pass A (sequential): enumerate blocks in their final (deterministic)
    // order, fingerprint each, and collect the stale ones as compile jobs.
    //
    // Service-chain transit rules sit at the very top: a middlebox port
    // belongs to some participant whose own policies must not capture the
    // re-injected traffic (see ChainStagePolicy).
    struct ChainJob {
      BlockMemo::Entry* entry = nullptr;
      Policy policy = Policy::Drop();
    };
    struct OverrideJob {
      AsNumber sender = 0;
      const OutboundClause* clause = nullptr;
      const std::vector<GroupId>* group_ids = nullptr;
      const Classifier* target = nullptr;
      BlockMemo::Entry* entry = nullptr;
    };
    std::vector<const BlockMemo::Entry*> append_order;
    std::vector<ChainJob> chain_jobs;
    std::vector<OverrideJob> override_jobs;

    for (const auto& [as, participant] : participants) {
      Policy chain_policy = ChainStagePolicy(*topo_, participant);
      if (chain_policy.kind() == Policy::Kind::kDrop) continue;
      util::Fingerprint fp;
      fp.Mix("chain");
      fp.Mix(as);
      fp.Mix(participant.inbound_version());
      BlockMemo::Entry& entry = blocks.chain_blocks[as];
      append_order.push_back(&entry);
      if (entry.fingerprint == fp.value()) {
        tally(/*reused=*/true);
        continue;
      }
      entry.fingerprint = fp.value();
      chain_jobs.push_back(ChainJob{&entry, std::move(chain_policy)});
      tally(/*reused=*/false);
    }

    // Override blocks: each sender's clauses, expanded over their eligible
    // VMACs, composed ONLY against the inbound block of the clause's target
    // ("most SDX policies only concern a subset of the participants").
    // Clause blocks of one sender stack in clause-priority order; blocks of
    // different senders are disjoint by in-port, so plain concatenation is
    // the composition ("most SDX policies are disjoint").
    for (const auto& [as, sender] : participants) {
      const auto& clauses = sender.outbound();
      for (int i = 0; i < static_cast<int>(clauses.size()); ++i) {
        const OutboundClause& clause = clauses[static_cast<std::size_t>(i)];
        auto set_it = clause_set_ids.find({as, i});
        if (set_it == clause_set_ids.end()) continue;
        auto groups_it = groups.groups_in_set.find(set_it->second);
        if (groups_it == groups.groups_in_set.end()) continue;
        auto target = inbound_blocks.find(clause.to);
        if (target == inbound_blocks.end()) continue;
        // The block is a pure function of the clause's own content (not the
        // sender's whole policy — editing one clause must not dirty its
        // siblings), the target's inbound block, and the ordered content of
        // its eligible groups. ToString is a full serialization of match,
        // destination restrictions, and target.
        util::Fingerprint fp;
        fp.Mix("override");
        fp.Mix(as);
        fp.Mix(static_cast<std::uint64_t>(i));
        fp.Mix(clause.ToString());
        fp.Mix(clause.to);
        fp.Mix(participants.at(clause.to).inbound_version());
        for (GroupId id : groups_it->second) fp.Mix(groups.groups[id].sig);
        BlockMemo::Entry& entry = blocks.override_blocks[{as, i}];
        append_order.push_back(&entry);
        if (entry.fingerprint == fp.value()) {
          tally(/*reused=*/true);
          continue;
        }
        entry.fingerprint = fp.value();
        override_jobs.push_back(OverrideJob{as, &clause, &groups_it->second,
                                            &target->second, &entry});
        tally(/*reused=*/false);
      }
    }

    // Pass B (parallel): recompile the stale blocks. Each job writes only
    // its own memo entry.
    const std::size_t total_jobs = chain_jobs.size() + override_jobs.size();
    auto run_job = [&](std::size_t j) {
      if (j < chain_jobs.size()) {
        ChainJob& job = chain_jobs[j];
        job.entry->rules = ForwardingRules(Compile(job.policy));
        return;
      }
      OverrideJob& job = override_jobs[j - chain_jobs.size()];
      job.entry->rules = ForwardingRules(
          ClauseBlock(job.sender, *job.clause, *job.group_ids, groups)
              .Sequential(*job.target));
    };
    if (pool == nullptr) {
      for (std::size_t j = 0; j < total_jobs; ++j) run_job(j);
    } else {
      pool->ParallelFor(total_jobs, run_job);
    }

    // Pass C (sequential): deterministic merge, identical to the order the
    // sequential compiler appends blocks in.
    for (const BlockMemo::Entry* entry : append_order) {
      final_rules.insert(final_rules.end(), entry->rules.begin(),
                         entry->rules.end());
      result.override_rule_count += entry->rules.size();
    }
  }

  {
    obs::TraceSpan span(tracer, "default_blocks");

    // The default block depends on every inbound block and every group.
    util::Fingerprint fp;
    fp.Mix("default");
    for (const auto& [as, participant] : participants) {
      fp.Mix(as);
      fp.Mix(participant.inbound_version());
    }
    for (const AnnotatedGroup& group : groups.groups) fp.Mix(group.sig);
    BlockMemo::Entry& entry = blocks.default_block;
    if (entry.fingerprint != fp.value()) {
      entry.fingerprint = fp.value();
      entry.rules.clear();
      tally(/*reused=*/false);

      Classifier all_inbound = Classifier::DropAll();
      for (const auto& [as, block] : inbound_blocks) {
        all_inbound = all_inbound.UnionDisjoint(block);
      }

      // Per-sender default exceptions, in-port-qualified so they are
      // disjoint across senders (and across groups by VMAC): senders whose
      // own best route for a group differs from the shared default (see
      // AnnotatedGroup).
      std::vector<Rule> exception_rules;
      for (const AnnotatedGroup& group : groups.groups) {
        for (const auto& [sender, hop] : group.per_sender_best) {
          if (hop == 0 || !participants.contains(hop)) continue;
          const net::PortId ingress = topo_->IngressPort(hop);
          for (net::PortId port : topo_->PhysicalPortIds(sender)) {
            exception_rules.push_back(
                Rule{net::FieldMatch::InPort(port).WithDstMac(
                         group.binding.vmac),
                     {dataplane::Action{{}, ingress}}});
          }
        }
      }
      if (!exception_rules.empty()) {
        exception_rules.push_back(Rule{net::FieldMatch(), {}});
        AppendForwardingRules(
            Classifier(std::move(exception_rules)).Sequential(all_inbound),
            entry.rules);
      }

      // Shared default block: forwarding into every inbound block, rules
      // disjoint by dst MAC — one exact-VMAC rule per group.
      std::vector<Rule> default_rules;
      default_rules.reserve(groups.groups.size() +
                            topo_->physical_port_count() + 1);
      for (const AnnotatedGroup& group : groups.groups) {
        if (group.best_hop == 0 || !participants.contains(group.best_hop)) {
          continue;
        }
        default_rules.push_back(
            Rule{net::FieldMatch::DstMac(group.binding.vmac),
                 {dataplane::Action{{}, topo_->IngressPort(group.best_hop)}}});
      }
      for (const PhysicalPort& port : topo_->AllPhysicalPorts()) {
        default_rules.push_back(
            Rule{net::FieldMatch::DstMac(port.mac),
                 {dataplane::Action{{}, topo_->IngressPort(port.owner)}}});
      }
      default_rules.push_back(Rule{net::FieldMatch(), {}});
      AppendForwardingRules(
          Classifier(std::move(default_rules)).Sequential(all_inbound),
          entry.rules);
    } else {
      tally(/*reused=*/true);
    }
    final_rules.insert(final_rules.end(), entry.rules.begin(),
                       entry.rules.end());
    result.default_rule_count += entry.rules.size();
  }

  obs::TraceSpan span(tracer, "finalize_classifier");
  final_rules.push_back(Rule{net::FieldMatch(), {}});
  Classifier final_classifier(std::move(final_rules));
  final_classifier.DedupMatches();
  result.classifier = std::move(final_classifier);
  return result;
}

policy::Classifier Composer::ComposeForGroup(
    const std::map<AsNumber, Participant>& participants,
    const InboundBlocks& inbound_blocks, const AnnotatedGroup& group,
    const ClauseSetIds& clause_set_ids) const {
  std::vector<Rule> rules;
  const Predicate vmac = Predicate::DstMac(group.binding.vmac);
  auto inbound_block = [&](AsNumber target) -> const Classifier* {
    auto it = inbound_blocks.find(target);
    return it == inbound_blocks.end() ? nullptr : &it->second;
  };

  // Override rules for every clause whose behavior set contains the group.
  for (const auto& [as, sender] : participants) {
    const auto& clauses = sender.outbound();
    for (int i = 0; i < static_cast<int>(clauses.size()); ++i) {
      auto set_it = clause_set_ids.find({as, i});
      if (set_it == clause_set_ids.end()) continue;
      const bool member =
          std::find(group.member_of.begin(), group.member_of.end(),
                    set_it->second) != group.member_of.end();
      if (!member) continue;
      const OutboundClause& clause = clauses[static_cast<std::size_t>(i)];
      const Classifier* target = inbound_block(clause.to);
      if (target == nullptr) continue;
      Policy p = Policy::Filter(OutboundIsolation(*topo_, as) &&
                                clause.match && vmac) >>
                 Policy::Fwd(topo_->IngressPort(clause.to));
      AppendForwardingRules(Compile(p).Sequential(*target), rules);
    }
  }

  // Per-sender default exceptions for the group.
  for (const auto& [sender, hop] : group.per_sender_best) {
    if (hop == 0) continue;
    const Classifier* target = inbound_block(hop);
    if (target == nullptr) continue;
    Policy p = Policy::Filter(OutboundIsolation(*topo_, sender) && vmac) >>
               Policy::Fwd(topo_->IngressPort(hop));
    AppendForwardingRules(Compile(p).Sequential(*target), rules);
  }

  // Default rule for the group.
  if (group.best_hop != 0) {
    if (const Classifier* target = inbound_block(group.best_hop)) {
      Policy p = Policy::Filter(vmac) >>
                 Policy::Fwd(topo_->IngressPort(group.best_hop));
      AppendForwardingRules(Compile(p).Sequential(*target), rules);
    }
  }

  rules.push_back(Rule{net::FieldMatch(), {}});
  Classifier out(std::move(rules));
  out.DedupMatches();
  return out;
}

policy::Policy Composer::BuildFaithfulPolicy(
    const std::map<AsNumber, Participant>& participants) const {
  Policy sum = Policy::Drop();
  for (const auto& [as, participant] : participants) {
    // --- Outbound side: overrides with destination-prefix BGP filters,
    // guarded over the default MAC-learning policy (the paper's if_()).
    Policy overrides = Policy::Drop();
    Predicate guard = Predicate::False();
    for (const OutboundClause& clause : participant.outbound()) {
      if (!topo_->Contains(clause.to)) continue;
      Predicate pred =
          clause.match && BgpFilterPredicate(*rs_, as, clause);
      overrides = overrides +
                  (Policy::Filter(pred) >>
                   Policy::Fwd(topo_->VirtualPort(clause.to, as)));
      guard = guard || pred;
    }
    Policy defaults = Policy::Drop();
    for (const PhysicalPort& port : topo_->AllPhysicalPorts()) {
      if (port.owner == as) continue;
      defaults = defaults +
                 Policy::Guarded(Predicate::DstMac(port.mac),
                                 Policy::Fwd(topo_->VirtualPort(port.owner,
                                                                as)));
    }
    // Remote participants have no physical ports: nothing enters from them.
    Policy out_part =
        participant.remote()
            ? Policy::Drop()
            : Policy::Filter(OutboundIsolation(*topo_, as)) >>
                  Policy::If(guard, overrides, defaults);

    // --- Inbound side: per-peer virtual-port isolation, then delivery.
    Policy in_part = Policy::Filter(InboundIsolation(*topo_, as)) >>
                     InboundDeliveryPolicy(*topo_, participant);

    sum = sum + (out_part + in_part);
  }
  // Two virtual hops: sender's switch, then receiver's switch.
  return sum >> sum;
}

}  // namespace sdx::core
