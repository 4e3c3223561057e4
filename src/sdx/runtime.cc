#include "sdx/runtime.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "obs/timer.h"
#include "sdx/bgp_filter.h"
#include "util/fingerprint.h"

namespace sdx::core {

using obs::SecondsSince;

SdxRuntime::SdxRuntime() : composer_(topology_, route_server_) {
  queue_depth_gauge_ = &metrics_.GetGauge("health.queue_depth");
  EnableJournal();
}

void SdxRuntime::EnableJournal(std::size_t capacity) {
  journal_ = std::make_unique<obs::Journal>(capacity);
  route_server_.SetSinks(sinks());
  data_plane_.table().SetJournal(journal_.get());
  if (convergence_ != nullptr) convergence_->AttachJournal(journal_.get());
  telemetry_options_.journal = {.enabled = true, .capacity = capacity};
}

void SdxRuntime::DisableJournal() {
  journal_.reset();
  route_server_.SetSinks(sinks());
  data_plane_.table().SetJournal(nullptr);
  if (convergence_ != nullptr) convergence_->AttachJournal(nullptr);
  telemetry_options_.journal.enabled = false;
}

void SdxRuntime::EnableConvergenceTracking(std::size_t max_pending) {
  convergence_ = std::make_unique<obs::ConvergenceTracker>(max_pending);
  convergence_->AttachJournal(journal_.get());
  telemetry_options_.convergence = {.enabled = true,
                                    .max_pending = max_pending};
}

void SdxRuntime::DisableConvergenceTracking() {
  convergence_.reset();
  telemetry_options_.convergence.enabled = false;
}

void SdxRuntime::EnableTimeSeries(double interval_seconds,
                                  std::size_t capacity) {
  DisableTimeSeries();
  timeseries_ = std::make_unique<obs::TimeSeries>(capacity);
  sampler_ = std::make_unique<obs::TimeSeriesSampler>(
      timeseries_.get(), [this] { return CollectTimeSeriesValues(); },
      obs::TimeSeriesSampler::Options{interval_seconds});
  sampler_->Start();
  telemetry_options_.timeseries = {.enabled = true,
                                   .interval_seconds = interval_seconds,
                                   .capacity = capacity};
}

void SdxRuntime::DisableTimeSeries() {
  sampler_.reset();  // joins the sampler thread; the series stays readable
  telemetry_options_.timeseries.enabled = false;
}

void SdxRuntime::EnableFlowTelemetry(obs::FlowRecorder::Options options) {
  flow_recorder_ = std::make_unique<obs::FlowRecorder>(options);
  for (const PhysicalPort& port : topology_.AllPhysicalPorts()) {
    flow_recorder_->SetPortOwner(port.id, port.owner);
  }
  data_plane_.SetFlowRecorder(flow_recorder_.get());
  telemetry_options_.flow = {.enabled = true, .options = options};
}

void SdxRuntime::DisableFlowTelemetry() {
  data_plane_.SetFlowRecorder(nullptr);
  flow_recorder_.reset();
  telemetry_options_.flow.enabled = false;
}

obs::TelemetryOptions SdxRuntime::ConfigureTelemetry(
    const obs::TelemetryOptions& options) {
  const obs::TelemetryOptions previous = telemetry_options_;

  if (options.journal != previous.journal) {
    if (options.journal.enabled) {
      EnableJournal(options.journal.capacity);
    } else {
      DisableJournal();
    }
  }
  if (options.flow != previous.flow) {
    if (options.flow.enabled) {
      EnableFlowTelemetry(options.flow.options);
    } else {
      DisableFlowTelemetry();
    }
  }
  // The sampler thread reads the convergence tracker, so it is stopped
  // before the tracker is replaced or removed, then restarted below.
  const bool convergence_changed =
      options.convergence != previous.convergence;
  const bool timeseries_changed =
      options.timeseries != previous.timeseries;
  if (convergence_changed || timeseries_changed) DisableTimeSeries();
  if (convergence_changed) {
    if (options.convergence.enabled) {
      EnableConvergenceTracking(options.convergence.max_pending);
    } else {
      DisableConvergenceTracking();
    }
  }
  if ((convergence_changed || timeseries_changed) &&
      options.timeseries.enabled) {
    EnableTimeSeries(options.timeseries.interval_seconds,
                     options.timeseries.capacity);
  }

  telemetry_options_ = options;
  // Journaled AFTER applying, so the event lands in the journal the new
  // options produced (args: new/old packed {journal, flow<<1,
  // convergence<<2, timeseries<<3} enabled bits, journal capacity).
  const auto pack = [](const obs::TelemetryOptions& o) {
    return static_cast<std::uint64_t>(o.journal.enabled ? 1 : 0) |
           (static_cast<std::uint64_t>(o.flow.enabled ? 1 : 0) << 1) |
           (static_cast<std::uint64_t>(o.convergence.enabled ? 1 : 0) << 2) |
           (static_cast<std::uint64_t>(o.timeseries.enabled ? 1 : 0) << 3);
  };
  obs::JournalRecord(journal_.get(),
                     obs::JournalEventType::kTelemetryOptionsChanged,
                     journal_ ? journal_->current_update_id()
                              : obs::kNoUpdateId,
                     pack(options), pack(previous),
                     static_cast<std::uint64_t>(options.journal.capacity));
  return previous;
}

Participant& SdxRuntime::AddParticipant(AsNumber as, int physical_ports) {
  if (participants_.contains(as)) {
    throw std::invalid_argument("participant AS" + std::to_string(as) +
                                " already exists");
  }
  topology_.AddParticipant(as, physical_ports);
  // Router address: drawn from 192.168.0.0/16 by registration order; also
  // used as the BGP router id for decision-process tie-breaking.
  const net::IPv4Address router_ip(0xC0A80000u | next_router_index_);
  ++next_router_index_;
  router_ips_[as] = router_ip;
  route_server_.RegisterParticipant(as, router_ip);
  auto [it, inserted] = participants_.emplace(as, Participant(as, physical_ports));
  if (physical_ports > 0) {
    const PhysicalPort& port0 = topology_.PhysicalPortOf(as, 0);
    routers_.emplace(as, BorderRouter(as, port0.id, port0.mac));
    // Real next-hop resolution for never-overridden prefixes: the router
    // address maps to the participant's port-0 MAC.
    arp_.Bind(router_ip, port0.mac);
  }
  // Declare the participant's fabric attachments to the data plane so
  // its per-port stats are pre-registered (bounded-tracking, §11) and
  // strict-ingress deployments admit them.
  for (int i = 0; i < physical_ports; ++i) {
    data_plane_.RegisterPort(topology_.PhysicalPortOf(as, i).id);
  }
  if (flow_recorder_ != nullptr) {
    for (int i = 0; i < physical_ports; ++i) {
      flow_recorder_->SetPortOwner(topology_.PhysicalPortOf(as, i).id, as);
    }
  }
  return it->second;
}

namespace {

[[noreturn]] void PolicyError(AsNumber as, std::size_t clause_index,
                              const std::string& message) {
  throw std::invalid_argument("AS" + std::to_string(as) + " clause #" +
                              std::to_string(clause_index) + ": " + message);
}

}  // namespace

void SdxRuntime::SetOutboundPolicy(AsNumber as,
                                   std::vector<OutboundClause> clauses) {
  auto it = participants_.find(as);
  if (it == participants_.end()) {
    throw std::invalid_argument("unknown participant AS" + std::to_string(as));
  }
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const OutboundClause& clause = clauses[i];
    if (clause.to == as) {
      PolicyError(as, i, "outbound clause targets the sender itself");
    }
    if (!participants_.contains(clause.to)) {
      PolicyError(as, i, "unknown target AS" + std::to_string(clause.to));
    }
    if (clause.match.ContainsNegation()) {
      // Outbound clause matches must be positive: the compiler stacks
      // clause blocks first-match-wins, and a negated match would need
      // load-bearing drop rules that cannot fall through to later
      // clauses. Express exclusions via clause ordering instead.
      PolicyError(as, i,
                  "outbound clause matches must not contain negation; "
                  "use clause ordering (earlier clauses win) instead");
    }
  }
  it->second.SetOutbound(std::move(clauses));
}

void SdxRuntime::SetInboundPolicy(AsNumber as,
                                  std::vector<InboundClause> clauses) {
  auto it = participants_.find(as);
  if (it == participants_.end()) {
    throw std::invalid_argument("unknown participant AS" + std::to_string(as));
  }
  const Participant& participant = it->second;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const InboundClause& clause = clauses[i];
    const AsNumber host = clause.via_participant.value_or(as);
    auto host_it = participants_.find(host);
    if (host_it == participants_.end()) {
      PolicyError(as, i, "unknown hosting AS" + std::to_string(host));
    }
    if (participant.remote() && !clause.via_participant) {
      PolicyError(as, i,
                  "remote participant needs via= to name a hosting port");
    }
    if (clause.port_index < 0 ||
        clause.port_index >= host_it->second.physical_ports()) {
      PolicyError(as, i,
                  "port " + std::to_string(clause.port_index) +
                      " does not exist on AS" + std::to_string(host));
    }
    for (const ChainHop& hop : clause.chain) {
      auto hop_it = participants_.find(hop.via);
      if (hop_it == participants_.end()) {
        PolicyError(as, i, "chain hop via unknown AS" +
                               std::to_string(hop.via));
      }
      if (hop.port_index < 0 ||
          hop.port_index >= hop_it->second.physical_ports()) {
        PolicyError(as, i,
                    "chain hop port " + std::to_string(hop.port_index) +
                        " does not exist on AS" + std::to_string(hop.via));
      }
    }
  }
  it->second.SetInbound(std::move(clauses));
}

void SdxRuntime::AnnouncePrefix(AsNumber as, const net::IPv4Prefix& prefix,
                                std::vector<bgp::AsNumber> as_path) {
  bgp::Announcement announcement;
  announcement.from_as = as;
  announcement.route.prefix = prefix;
  announcement.route.next_hop = RouterIp(as);
  announcement.route.as_path =
      as_path.empty() ? std::vector<bgp::AsNumber>{as} : std::move(as_path);
  route_server_.HandleUpdate(bgp::BgpUpdate{announcement});
  rib_touched_.insert(prefix);
  ++tracked_updates_;
}

net::IPv4Address SdxRuntime::RouterIp(AsNumber as) const {
  auto it = router_ips_.find(as);
  if (it == router_ips_.end()) {
    throw std::out_of_range("unknown participant AS" + std::to_string(as));
  }
  return it->second;
}

void SdxRuntime::RecomputeGroups(obs::Tracer* tracer, bool incremental,
                                 util::ThreadPool* pool) {
  // Fast-path singletons are always retired wholesale: the background pass
  // re-coalesces their prefixes into optimal groups.
  for (const AnnotatedGroup& group : fast_groups_) {
    arp_.Unbind(group.binding.vnh);
    vnh_.Release(group.binding);
  }
  fast_groups_.clear();
  fast_group_of_.clear();
  groups_.Clear();
  clause_set_ids_.clear();
  dirty_prefixes_.clear();

  if (!incremental) {
    clause_eligible_.clear();
    prefix_info_.clear();
    remote_overridden_.clear();
  } else {
    // Touched prefixes invalidate their memoized routing info; entries are
    // recomputed below if (and only if) the prefix is still overridden.
    for (const net::IPv4Prefix& prefix : rib_touched_) {
      prefix_info_.erase(prefix);
    }
  }

  // A prefix is eligible for a clause when the clause's destination
  // restriction admits it and the target exports a usable route for it to
  // the sender — the point-query form of EligiblePrefixes.
  auto clause_admits = [this](AsNumber sender, const OutboundClause& clause,
                              const net::IPv4Prefix& prefix) {
    return ClauseCoversPrefix(clause, prefix) &&
           route_server_.ExportsTo(clause.to, sender, prefix);
  };

  FecComputer fec;
  std::vector<PrefixGroup> computed;
  {
    obs::TraceSpan span(tracer, "fec_compute");
    std::vector<net::IPv4Prefix> overridden;  // union over all clause sets

    // Pass 1: one behavior set per outbound clause (its eligible prefixes,
    // kept sorted so full and incremental compiles group identically).
    // A clause's memoized set survives while the owning participant's
    // policy is unedited; RIB churn is folded in per touched prefix. The
    // route-server sweeps for stale/fresh clauses fan out across `pool`.
    struct ClauseRef {
      AsNumber as = 0;
      int index = 0;
      const OutboundClause* clause = nullptr;
      ClauseEligible* entry = nullptr;
      bool full = false;
    };
    std::vector<ClauseRef> refs;
    for (const auto& [as, participant] : participants_) {
      const auto& clauses = participant.outbound();
      for (int i = 0; i < static_cast<int>(clauses.size()); ++i) {
        ClauseEligible& entry = clause_eligible_[{as, i}];
        const bool full =
            !incremental || entry.outbound_version != participant.outbound_version();
        refs.push_back(ClauseRef{as, i,
                                 &clauses[static_cast<std::size_t>(i)],
                                 &entry, full});
        entry.outbound_version = participant.outbound_version();
      }
    }
    auto refresh_clause = [&](std::size_t r) {
      const ClauseRef& ref = refs[r];
      std::vector<net::IPv4Prefix>& eligible = ref.entry->prefixes;
      if (ref.full) {
        eligible = EligiblePrefixes(route_server_, ref.as, *ref.clause);
        std::sort(eligible.begin(), eligible.end());
      } else {
        for (const net::IPv4Prefix& prefix : rib_touched_) {
          auto pos = std::lower_bound(eligible.begin(), eligible.end(),
                                      prefix);
          const bool present = pos != eligible.end() && *pos == prefix;
          const bool wanted = clause_admits(ref.as, *ref.clause, prefix);
          if (wanted && !present) {
            eligible.insert(pos, prefix);
          } else if (!wanted && present) {
            eligible.erase(pos);
          }
        }
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(refs.size(), refresh_clause);
    } else {
      for (std::size_t r = 0; r < refs.size(); ++r) refresh_clause(r);
    }
    for (const ClauseRef& ref : refs) {
      clause_set_ids_[{ref.as, ref.index}] =
          fec.AddBehaviorSet(ref.entry->prefixes);
      overridden.insert(overridden.end(), ref.entry->prefixes.begin(),
                        ref.entry->prefixes.end());
    }

    // Prefixes whose best route leads to a *remote* participant (wide-area
    // load balancing, §3.2) must be grouped too: there is no physical port
    // MAC for the border routers to tag with, so reaching the remote's
    // virtual switch requires a VNH/VMAC.
    auto remote_best = [this](const net::IPv4Prefix& prefix) {
      const bgp::BgpRoute* best = route_server_.GlobalBest(prefix);
      if (best == nullptr) return false;
      auto it = participants_.find(best->peer_as);
      return it != participants_.end() && it->second.remote();
    };
    if (!incremental) {
      for (const net::IPv4Prefix& prefix : route_server_.AllPrefixes()) {
        if (remote_best(prefix)) remote_overridden_.insert(prefix);
      }
    } else {
      for (const net::IPv4Prefix& prefix : rib_touched_) {
        if (remote_best(prefix)) {
          remote_overridden_.insert(prefix);
        } else {
          remote_overridden_.erase(prefix);
        }
      }
    }
    overridden.insert(overridden.end(), remote_overridden_.begin(),
                      remote_overridden_.end());

    // Pass 2: group overridden prefixes by their default forwarding
    // behavior. Two prefixes may share a group only if they share the route
    // server's (global) best next hop AND every sender's own best next hop —
    // a sender whose view differs (the best-hop announcer itself, or a
    // receiver the route is not exported to) needs its own exception rule,
    // and that must be uniform across the group.
    std::sort(overridden.begin(), overridden.end());
    overridden.erase(std::unique(overridden.begin(), overridden.end()),
                     overridden.end());

    // Per-prefix routing info, memoized: only prefixes without a valid
    // entry (new to the overridden set, or touched above) hit the route
    // server, fanned out across `pool`. This is the dominant cost of a
    // cold compile — senders × prefixes best-route lookups.
    std::vector<PrefixInfo*> fill;
    std::vector<const net::IPv4Prefix*> fill_prefixes;
    for (const net::IPv4Prefix& prefix : overridden) {
      auto [it, inserted] = prefix_info_.try_emplace(prefix);
      if (!inserted) continue;
      fill.push_back(&it->second);
      fill_prefixes.push_back(&it->first);
    }
    auto compute_info = [&](std::size_t f) {
      const net::IPv4Prefix& prefix = *fill_prefixes[f];
      PrefixInfo& info = *fill[f];
      const bgp::BgpRoute* best = route_server_.GlobalBest(prefix);
      info.global_hop = best == nullptr ? 0 : best->peer_as;
      for (const auto& [sender, router] : routers_) {
        const bgp::BgpRoute* own = route_server_.BestRoute(sender, prefix);
        const AsNumber own_hop = own == nullptr ? 0 : own->peer_as;
        if (own_hop != info.global_hop) {
          info.exceptions.emplace_back(sender, own_hop);
        }
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(fill.size(), compute_info);
    } else {
      for (std::size_t f = 0; f < fill.size(); ++f) compute_info(f);
    }

    std::map<AsNumber, std::vector<net::IPv4Prefix>> by_next_hop;
    std::map<std::pair<AsNumber, AsNumber>, std::vector<net::IPv4Prefix>>
        by_sender_view;
    for (const net::IPv4Prefix& prefix : overridden) {
      const PrefixInfo& info = prefix_info_.at(prefix);
      by_next_hop[info.global_hop].push_back(prefix);
      for (const auto& [sender, own_hop] : info.exceptions) {
        by_sender_view[{sender, own_hop}].push_back(prefix);
      }
    }
    for (const auto& [next_hop, prefixes] : by_next_hop) {
      fec.AddBehaviorSet(prefixes);
    }
    for (const auto& [view, prefixes] : by_sender_view) {
      fec.AddBehaviorSet(prefixes);
    }

    // Pass 3: the minimum disjoint subsets.
    computed = fec.Compute();
  }

  // VNH assignment: groups whose exact prefix set survived regrouping keep
  // their previous (VNH, VMAC) — untouched FIB entries stay valid — and
  // only genuinely new groups allocate. Stale bindings are released first
  // (after the reuse scan, so a live binding can never be recycled), then
  // fresh ones draw from the returned pool.
  obs::TraceSpan span(tracer, "vnh_allocation");
  std::map<std::vector<net::IPv4Prefix>, VnhBinding> previous =
      std::move(stable_bindings_);
  stable_bindings_.clear();
  std::vector<std::size_t> needs_binding;
  for (PrefixGroup& group : computed) {
    AnnotatedGroup annotated;
    annotated.id = group.id;
    annotated.prefixes = std::move(group.prefixes);
    std::sort(annotated.prefixes.begin(), annotated.prefixes.end());
    annotated.member_of = std::move(group.member_of);
    auto prev = previous.find(annotated.prefixes);
    if (prev != previous.end()) {
      annotated.binding = prev->second;
      previous.erase(prev);
    } else {
      needs_binding.push_back(groups_.groups.size());
    }
    const PrefixInfo& info = prefix_info_.at(annotated.prefixes.front());
    annotated.best_hop = info.global_hop;
    // Per-sender exceptions: uniform across the group's prefixes because
    // each differing view contributed a behavior set above.
    for (const auto& [sender, own_hop] : info.exceptions) {
      annotated.per_sender_best[sender] = own_hop;
    }
    for (const net::IPv4Prefix& prefix : annotated.prefixes) {
      groups_.group_of[prefix] = annotated.id;
    }
    for (std::uint32_t set : annotated.member_of) {
      groups_.groups_in_set[set].push_back(annotated.id);
    }
    groups_.groups.push_back(std::move(annotated));
  }
  for (const auto& [prefixes, binding] : previous) {
    arp_.Unbind(binding.vnh);
    vnh_.Release(binding);
  }
  for (std::size_t index : needs_binding) {
    AnnotatedGroup& annotated = groups_.groups[index];
    annotated.binding = vnh_.Allocate();
    arp_.Bind(annotated.binding.vnh, annotated.binding.vmac);
  }

  // Content signatures + the binding snapshot for the next generation.
  std::map<net::IPv4Prefix, net::IPv4Address> new_prefix_vnh;
  for (AnnotatedGroup& annotated : groups_.groups) {
    util::Fingerprint sig;
    for (const net::IPv4Prefix& prefix : annotated.prefixes) {
      sig.Mix(prefix.network().value());
      sig.Mix(prefix.length());
      new_prefix_vnh.emplace(prefix, annotated.binding.vnh);
    }
    sig.Mix(annotated.binding.vnh.value());
    sig.Mix(annotated.binding.vmac.value());
    sig.Mix(annotated.best_hop);
    for (const auto& [sender, own_hop] : annotated.per_sender_best) {
      sig.Mix(sender);
      sig.Mix(own_hop);
    }
    annotated.sig = sig.value();
    stable_bindings_.emplace(annotated.prefixes, annotated.binding);
  }

  // Reachability bitmaps (introspective) + mode-appropriate ARP answers.
  // Every group is (re)bound here: kept bindings were only Bind()ed when
  // first allocated, and the active encoding may have flipped since —
  // BindEncoded/Bind displace each other, so this pass is idempotent and
  // always leaves the responder speaking the active encoding. The per-
  // group work is independent, so it fans out; binding stays sequential.
  {
    const std::vector<AsNumber> policy_senders = PolicySenders();
    std::vector<dataplane::ArpResponder::EncodedEntry> entries(
        encoded_active_ ? groups_.groups.size() : 0);
    auto annotate = [&](std::size_t g) {
      AnnotatedGroup& group = groups_.groups[g];
      group.reach = ComputeReach(group, roster_, route_server_);
      if (encoded_active_) {
        entries[g] = BuildEncodedArpEntry(group, policy_senders);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(groups_.groups.size(), annotate);
    } else {
      for (std::size_t g = 0; g < groups_.groups.size(); ++g) annotate(g);
    }
    for (std::size_t g = 0; g < groups_.groups.size(); ++g) {
      const AnnotatedGroup& group = groups_.groups[g];
      if (encoded_active_) {
        arp_.BindEncoded(group.binding.vnh, std::move(entries[g]));
      } else {
        arp_.Bind(group.binding.vnh, group.binding.vmac);
      }
    }
  }

  // Dirty FIB entries: RIB churn plus every prefix whose advertised VNH
  // appeared, vanished, or changed.
  if (incremental) {
    dirty_prefixes_ = rib_touched_;
    auto old_it = prefix_vnh_.begin();
    auto new_it = new_prefix_vnh.begin();
    while (old_it != prefix_vnh_.end() || new_it != new_prefix_vnh.end()) {
      if (new_it == new_prefix_vnh.end() ||
          (old_it != prefix_vnh_.end() && old_it->first < new_it->first)) {
        dirty_prefixes_.insert(old_it->first);
        ++old_it;
      } else if (old_it == prefix_vnh_.end() ||
                 new_it->first < old_it->first) {
        dirty_prefixes_.insert(new_it->first);
        ++new_it;
      } else {
        if (old_it->second != new_it->second) {
          dirty_prefixes_.insert(old_it->first);
        }
        ++old_it;
        ++new_it;
      }
    }
  }
  prefix_vnh_ = std::move(new_prefix_vnh);
}

void SdxRuntime::ReadvertiseRoutes(bool incremental,
                                   util::ThreadPool* pool) {
  // Border-router FIBs: for each receiver, every prefix the route server
  // advertises to it; grouped prefixes get their VNH as next hop, others
  // keep the real next hop from the best route. Routers are independent —
  // each rebuild reads only the (const) route server and group table — so
  // they fan out one-per-worker.
  std::vector<std::pair<const AsNumber, BorderRouter>*> targets;
  targets.reserve(routers_.size());
  for (auto& entry : routers_) targets.push_back(&entry);

  auto advertise_full = [&](std::size_t t) {
    auto& [as, router] = *targets[t];
    const bgp::LocRib* rib = route_server_.LocRibFor(as);
    // Rebuild from scratch: simplest correct model of a session refresh.
    router = BorderRouter(as, topology_.PhysicalPortOf(as, 0).id,
                          topology_.PhysicalPortOf(as, 0).mac);
    if (rib == nullptr) return;
    rib->ForEach([&](const bgp::BgpRoute& route) {
      const AnnotatedGroup* group = groups_.FindByPrefix(route.prefix);
      // Ungrouped prefixes keep a real next hop: the announcing
      // participant's IXP-facing router address (which ARP resolves to its
      // port MAC) — exactly what a conventional route server re-advertises.
      router.InstallRoute(route.prefix, group != nullptr
                                            ? group->binding.vnh
                                            : RouterIp(route.peer_as));
    });
  };
  auto advertise_dirty = [&](std::size_t t) {
    auto& [as, router] = *targets[t];
    for (const net::IPv4Prefix& prefix : dirty_prefixes_) {
      const bgp::BgpRoute* route = route_server_.BestRoute(as, prefix);
      if (route == nullptr) {
        router.RemoveRoute(prefix);
        continue;
      }
      const AnnotatedGroup* group = groups_.FindByPrefix(prefix);
      router.InstallRoute(prefix, group != nullptr
                                      ? group->binding.vnh
                                      : RouterIp(route->peer_as));
    }
  };

  const std::function<void(std::size_t)> body =
      incremental ? std::function<void(std::size_t)>(advertise_dirty)
                  : std::function<void(std::size_t)>(advertise_full);
  if (pool != nullptr) {
    pool->ParallelFor(targets.size(), body);
  } else {
    for (std::size_t t = 0; t < targets.size(); ++t) body(t);
  }
}

std::vector<AsNumber> SdxRuntime::PolicySenders() const {
  std::vector<AsNumber> senders;
  for (const auto& [key, set_id] : clause_set_ids_) {
    if (senders.empty() || senders.back() != key.first) {
      senders.push_back(key.first);  // map order: already sorted + unique
    }
  }
  return senders;
}

dataplane::ArpResponder::EncodedEntry SdxRuntime::BuildEncodedArpEntry(
    const AnnotatedGroup& group,
    const std::vector<AsNumber>& policy_senders) const {
  dataplane::ArpResponder::EncodedEntry entry;
  entry.default_mac = EncodeVmac(roster_.IndexOf(group.best_hop), 0);
  // Candidates for a non-default answer: senders with outbound clauses
  // (clause bits / overflow fallback) and senders with their own best hop.
  // Everyone else resolves to best hop with no bits — the default.
  auto consider = [&](AsNumber sender) {
    if (entry.per_requester.contains(sender)) return;
    const auto it = participants_.find(sender);
    net::MacAddress answer;
    if (it != participants_.end() &&
        it->second.outbound().size() >
            static_cast<std::size_t>(kEncodedClauseBits)) {
      // Overflow fallback: this sender keeps legacy answers + rules.
      answer = group.binding.vmac;
    } else {
      answer = EncodedVmacFor(group, sender, roster_, clause_set_ids_);
    }
    if (answer != entry.default_mac) entry.per_requester.emplace(sender, answer);
  };
  for (AsNumber sender : policy_senders) consider(sender);
  for (const auto& [sender, hop] : group.per_sender_best) consider(sender);
  return entry;
}

CompileOptions SdxRuntime::SetCompileOptions(const CompileOptions& options) {
  const CompileOptions previous = options_;
  options_ = options;
  if (!options_.parallel) pool_.reset();
  if (!options_.incremental) {
    // Drop all dirty-tracking state so the next compile is from scratch.
    have_previous_compile_ = false;
    block_memo_.Clear();
    clause_eligible_.clear();
    prefix_info_.clear();
    remote_overridden_.clear();
  }
  // Journaled so an option flip is auditable next to the compiles whose
  // behavior it changes (args: new/old packed {parallel, incremental<<1},
  // new thread count).
  const auto pack = [](const CompileOptions& o) {
    return static_cast<std::uint64_t>(o.parallel ? 1 : 0) |
           (static_cast<std::uint64_t>(o.incremental ? 1 : 0) << 1);
  };
  obs::JournalRecord(journal_.get(),
                     obs::JournalEventType::kCompileOptionsChanged,
                     journal_ ? journal_->current_update_id()
                              : obs::kNoUpdateId,
                     pack(options_), pack(previous),
                     static_cast<std::uint64_t>(
                         options_.threads < 0 ? 0 : options_.threads));
  return previous;
}

namespace {

VmacEncoding ResolveEncoding(VmacEncoding configured) {
  if (configured != VmacEncoding::kAuto) return configured;
  if (const char* env = std::getenv("SDX_VMAC_ENCODING")) {
    if (std::string_view(env) == "encoded") return VmacEncoding::kEncoded;
  }
  return VmacEncoding::kLegacy;
}

}  // namespace

RuntimeOptions SdxRuntime::Configure(const RuntimeOptions& options) {
  const RuntimeOptions previous = runtime_options();
  // Sub-option setters run only on change so their journal events and side
  // effects (pool teardown, dirty-state drops) fire exactly when the
  // options actually flip.
  if (options.compile != previous.compile) SetCompileOptions(options.compile);
  batch_window_ = options.batch_window;
  if (options.backend != previous.backend) {
    data_plane_.table().SetBackend(options.backend);
  }
  vmac_encoding_ = options.vmac_encoding;
  // One consolidated audit event regardless of what changed (args: new/old
  // packed {compile.parallel, compile.incremental<<1, encoded<<3,
  // linear_backend<<4}, new batch window). Bit 2 is unused and stays 0,
  // so the other fields keep their positions in older journals.
  const auto pack = [](const RuntimeOptions& o) {
    const bool encoded =
        ResolveEncoding(o.vmac_encoding) == VmacEncoding::kEncoded;
    return static_cast<std::uint64_t>(o.compile.parallel ? 1 : 0) |
           (static_cast<std::uint64_t>(o.compile.incremental ? 1 : 0) << 1) |
           (static_cast<std::uint64_t>(encoded ? 1 : 0) << 3) |
           (static_cast<std::uint64_t>(
                o.backend == dataplane::FlowTable::Backend::kLinear ? 1 : 0)
            << 4);
  };
  obs::JournalRecord(journal_.get(),
                     obs::JournalEventType::kRuntimeOptionsChanged,
                     journal_ ? journal_->current_update_id()
                              : obs::kNoUpdateId,
                     pack(options), pack(previous),
                     static_cast<std::uint64_t>(options.batch_window));
  return previous;
}

VmacEncoding SdxRuntime::ResolvedVmacEncoding() const {
  return ResolveEncoding(vmac_encoding_);
}

std::uint64_t SdxRuntime::RosterFingerprint() const {
  util::Fingerprint fp;
  for (const auto& [as, participant] : participants_) {
    fp.Mix(as);
    fp.Mix(static_cast<std::uint64_t>(participant.physical_ports()));
  }
  return fp.value();
}

bool SdxRuntime::CanCompileIncrementally() const {
  return options_.incremental && have_previous_compile_ &&
         roster_fp_ == RosterFingerprint() &&
         rs_config_seen_ == route_server_.config_version() &&
         route_server_.updates_processed() ==
             rs_updates_seen_ + tracked_updates_;
}

util::ThreadPool* SdxRuntime::CompilePool() {
  if (!options_.parallel) return nullptr;
  const int want = options_.threads > 0
                       ? options_.threads
                       : util::ThreadPool::DefaultThreadCount();
  if (want <= 1) return nullptr;
  if (pool_ == nullptr || pool_->size() != want) {
    pool_ = std::make_unique<util::ThreadPool>(want);
  }
  return pool_.get();
}

CompileStats SdxRuntime::FullCompile() {
  const auto start = obs::Now();
  CompileStats stats;
  const bool incremental = CanCompileIncrementally();
  util::ThreadPool* pool = CompilePool();

  // Resolve the VMAC encoding and the participant numbering for this
  // generation before any group/ARP work: RecomputeGroups binds ARP
  // answers in the active encoding, and the composer's masked rules use
  // the same roster indices.
  encoded_active_ = ResolvedVmacEncoding() == VmacEncoding::kEncoded;
  {
    std::vector<AsNumber> ases;
    ases.reserve(participants_.size());
    for (const auto& [as, participant] : participants_) ases.push_back(as);
    roster_ = Roster(std::move(ases));
  }

  // A full compile is a generation swap, journaled as aggregates (begin/
  // end plus the flow table's bulk events) under the ambient id — per-
  // entity provenance is the fast path's domain.
  obs::JournalRecord(journal_.get(), obs::JournalEventType::kCompileBegin,
                     journal_ ? journal_->current_update_id()
                              : obs::kNoUpdateId);
  tracer_.Clear();
  {
    obs::TraceSpan root(&tracer_, "full_compile");
    {
      obs::TraceSpan span(&tracer_, "recompute_groups");
      RecomputeGroups(&tracer_, incremental, pool);
    }
    {
      obs::TraceSpan span(&tracer_, "readvertise_routes");
      ReadvertiseRoutes(incremental, pool);
    }

    CompiledSdx compiled;
    ComposeOutcome outcome;
    {
      obs::TraceSpan span(&tracer_, "policy_composition");
      // Fresh generation: drop stale memoization entries (old policy
      // objects are gone) and rebuild the shared inbound-block policies.
      // Cross-generation reuse lives in block_memo_, which stores compiled
      // RULES keyed by content fingerprints, never cache pointers.
      cache_.Clear();
      inbound_policies_ = composer_.BuildInboundPolicies(participants_);
      compiled = composer_.Compose(
          participants_, inbound_policies_, groups_, clause_set_ids_,
          &cache_, &tracer_, pool, &block_memo_, &outcome,
          encoded_active_ ? VmacEncoding::kEncoded : VmacEncoding::kLegacy,
          &roster_);
    }

    {
      obs::TraceSpan span(&tracer_, "rule_install");
      const dataplane::Cookie old_generation = generation_;
      ++generation_;
      data_plane_.table().InstallAll(
          compiled.classifier.ToFlowRules(kNormalPriorityBase, generation_));
      data_plane_.table().RemoveByCookie(old_generation);
      data_plane_.table().RemoveByCookie(kFastPathCookie);
    }

    stats.prefix_group_count = groups_.groups.size();
    stats.flow_rule_count = data_plane_.table().size();
    stats.override_rule_count = compiled.override_rule_count;
    stats.default_rule_count = compiled.default_rule_count;
    stats.vnh_count = vnh_.allocated_count();
    stats.incremental = incremental;
    stats.blocks_total = outcome.blocks_total;
    stats.blocks_reused = outcome.blocks_reused;
    stats.blocks_recompiled = outcome.blocks_recompiled;
  }

  // Advance the dirty-tracking epoch: this compile saw everything.
  roster_fp_ = RosterFingerprint();
  rs_config_seen_ = route_server_.config_version();
  rs_updates_seen_ = route_server_.updates_processed();
  tracked_updates_ = 0;
  rib_touched_.clear();
  have_previous_compile_ = true;

  stats.seconds = SecondsSince(start);
  stats.stages = tracer_.spans();
  last_compile_seconds_ = stats.seconds;
  obs::JournalRecord(journal_.get(), obs::JournalEventType::kCompileEnd,
                     journal_ ? journal_->current_update_id()
                              : obs::kNoUpdateId,
                     stats.prefix_group_count, stats.flow_rule_count,
                     static_cast<std::uint64_t>(stats.seconds * 1e6));
  metrics_.GetCounter("compile.count").Increment();
  if (incremental) {
    metrics_.GetCounter("compile.incremental").Increment();
  }
  metrics_.GetCounter("compile.incremental_reuse")
      .Increment(stats.blocks_reused);
  RecordTrace("compile", stats.seconds);
  return stats;
}

std::vector<std::uint32_t> SdxRuntime::SetsContaining(
    const net::IPv4Prefix& prefix) const {
  std::vector<std::uint32_t> out;
  for (const auto& [key, set_id] : clause_set_ids_) {
    const auto& [as, index] = key;
    const Participant& participant = participants_.at(as);
    const OutboundClause& clause =
        participant.outbound()[static_cast<std::size_t>(index)];
    if (ClauseCoversPrefix(clause, prefix) &&
        route_server_.ExportsTo(clause.to, as, prefix)) {
      out.push_back(set_id);
    }
  }
  return out;
}

UpdateStats SdxRuntime::ApplyBgpUpdate(const bgp::BgpUpdate& update) {
  // A batch of one through the shared pipeline — bypasses the standing
  // queue (no coalescing against pending updates) and keeps the classic
  // observable surface: root span "apply_bgp_update", bgp_update.*
  // metrics, one begin/end journal pair, no batch aggregates.
  std::vector<bgp::CoalescedUpdate> slots(1);
  slots[0].update = update;
  BatchStats batch = RunBatch(std::move(slots), 1, "apply_bgp_update",
                              "bgp_update", /*aggregate=*/false);
  UpdateStats stats;
  stats.best_route_changed = batch.prefixes_changed > 0;
  stats.rules_added = batch.rules_added;
  stats.seconds = batch.seconds;
  stats.stages = std::move(batch.stages);
  return stats;
}

void SdxRuntime::StampIngress(bgp::BgpUpdate& update) {
  if (journal_ == nullptr) return;
  if (bgp::UpdateProvenance(update) != obs::kNoUpdateId) return;
  const obs::UpdateId id = journal_->NextUpdateId();
  bgp::SetUpdateProvenance(update, id);
  journal_->Record(obs::JournalEventType::kUpdateEnqueued, id,
                   bgp::UpdateFrom(update),
                   bgp::IsAnnouncement(update) ? 1 : 0, 0,
                   bgp::UpdatePrefix(update).ToString());
}

BatchStats SdxRuntime::ApplyUpdates(std::span<const bgp::BgpUpdate> updates) {
  // Joins anything already pending, so explicit spans and the standing
  // queue coalesce against each other in arrival order.
  for (const bgp::BgpUpdate& update : updates) {
    bgp::BgpUpdate stamped = update;
    StampIngress(stamped);
    queue_.Enqueue(std::move(stamped));
  }
  return Flush();
}

bool SdxRuntime::EnqueueUpdate(bgp::BgpUpdate update) {
  if (!oldest_pending_since_) oldest_pending_since_ = obs::Now();
  StampIngress(update);
  queue_.Enqueue(std::move(update));
  queue_depth_gauge_->Set(static_cast<double>(queue_.pending_updates()));
  if (batch_window_ != 0 && queue_.pending_updates() >= batch_window_) {
    Flush();
    return true;
  }
  return false;
}

BatchStats SdxRuntime::Flush() {
  const std::size_t raw = queue_.pending_updates();
  oldest_pending_since_.reset();
  queue_depth_gauge_->Set(0.0);
  if (raw == 0) return {};
  last_batch_ = RunBatch(queue_.Drain(), raw, "apply_update_batch", "batch",
                         /*aggregate=*/true);
  return last_batch_;
}

BatchStats SdxRuntime::RunBatch(std::vector<bgp::CoalescedUpdate> slots,
                                std::size_t raw_count, const char* root_span,
                                const char* metric_prefix, bool aggregate) {
  const auto start = obs::Now();
  BatchStats stats;
  stats.updates_in = raw_count;
  stats.updates_applied = slots.size();
  stats.updates_coalesced = raw_count - slots.size();
  stats.outcomes.reserve(slots.size());

  if (aggregate) {
    obs::JournalRecord(journal_.get(), obs::JournalEventType::kBatchBegin,
                       obs::kNoUpdateId, raw_count, slots.size(),
                       stats.updates_coalesced);
  }

  // Provenance: session-delivered updates arrive pre-stamped (see
  // BgpSession::SendToPeer); directly injected ones get their id here.
  // Every coalesced-away update's fate is journaled before anything
  // touches the RIB, so `sdxmon chain <id>` explains losers too.
  for (bgp::CoalescedUpdate& slot : slots) {
    obs::UpdateId id = bgp::UpdateProvenance(slot.update);
    if (journal_ != nullptr && id == obs::kNoUpdateId) {
      id = journal_->NextUpdateId();
      bgp::SetUpdateProvenance(slot.update, id);
    }
    if (journal_ != nullptr) {
      const std::string prefix = bgp::UpdatePrefix(slot.update).ToString();
      for (std::uint64_t loser : slot.superseded) {
        journal_->Record(obs::JournalEventType::kUpdateCoalesced, loser, id,
                         slot.absorbed, 0, prefix);
      }
      journal_->Record(obs::JournalEventType::kBgpUpdateBegin, id,
                       bgp::UpdateFrom(slot.update),
                       bgp::IsAnnouncement(slot.update) ? 1 : 0, 0, prefix);
    }
  }

  // Prefixes whose best route changed, in first-change order (determines
  // group ids and priority bands); each prefix's cause is the LAST applied
  // update that changed it — with per-(peer, prefix) coalescing that is
  // the update whose route the installed rules reflect.
  std::vector<net::IPv4Prefix> changed_order;
  std::map<net::IPv4Prefix, obs::UpdateId> cause_of;
  std::map<net::IPv4Prefix, std::size_t> rules_for;

  tracer_.Clear();
  {
    obs::TraceSpan root(&tracer_, root_span);
    {
      obs::TraceSpan span(&tracer_, "rib_update");
      for (const bgp::CoalescedUpdate& slot : slots) {
        const net::IPv4Prefix prefix = bgp::UpdatePrefix(slot.update);
        const obs::UpdateId id = bgp::UpdateProvenance(slot.update);
        const bool changed = !route_server_.HandleUpdate(slot.update).empty();
        decision_updates_.Increment();
        // Track the prefix even when no best route changed: feasible-route
        // sets (and so clause eligibility) may still differ at the next
        // incremental compile.
        rib_touched_.insert(prefix);
        ++tracked_updates_;
        if (changed) {
          if (!cause_of.contains(prefix)) changed_order.push_back(prefix);
          cause_of[prefix] = id;
        }
        stats.outcomes.push_back(BatchOutcome{prefix, id, changed});
      }
    }
    stats.prefixes_changed = changed_order.size();

    if (!changed_order.empty()) {
      stats.compiled = true;
      util::ThreadPool* pool = CompilePool();

      // §4.3.2 fast path, batched: bypass VNH optimality entirely — assume
      // a fresh VNH per changed prefix and compile only the policy slices
      // relating to it. Group construction reads only const route-server
      // state, so prefixes fan out across the pool; VNH allocation and
      // journaling stay sequential (order-sensitive).
      const std::size_t group_base =
          groups_.groups.size() + fast_groups_.size();
      std::vector<AnnotatedGroup> new_groups(changed_order.size());
      {
        obs::TraceSpan span(&tracer_, "group_construction");
        auto build = [&](std::size_t g) {
          const net::IPv4Prefix& prefix = changed_order[g];
          AnnotatedGroup& group = new_groups[g];
          group.id = static_cast<GroupId>(group_base + g);
          group.prefixes = {prefix};
          group.member_of = SetsContaining(prefix);
          const bgp::BgpRoute* best = route_server_.GlobalBest(prefix);
          group.best_hop = best == nullptr ? 0 : best->peer_as;
          for (const auto& [sender, router] : routers_) {
            const bgp::BgpRoute* own =
                route_server_.BestRoute(sender, prefix);
            const AsNumber own_hop = own == nullptr ? 0 : own->peer_as;
            if (own_hop != group.best_hop) {
              group.per_sender_best[sender] = own_hop;
            }
          }
          group.reach = ComputeReach(group, roster_, route_server_);
        };
        if (pool != nullptr && new_groups.size() > 1) {
          pool->ParallelFor(new_groups.size(), build);
        } else {
          for (std::size_t g = 0; g < new_groups.size(); ++g) build(g);
        }
        for (std::size_t g = 0; g < new_groups.size(); ++g) {
          AnnotatedGroup& group = new_groups[g];
          group.binding = vnh_.Allocate();
          if (journal_ != nullptr) {
            const obs::UpdateId id = cause_of.at(changed_order[g]);
            journal_->Record(obs::JournalEventType::kFecGroupCreate, id,
                             group.id, group.prefixes.size(),
                             group.member_of.size(),
                             changed_order[g].ToString());
            journal_->Record(obs::JournalEventType::kVnhBind, id, group.id,
                             group.binding.vnh.value(), 0,
                             group.binding.vnh.ToString());
          }
        }
      }

      // One compile pass for the whole batch: slices are independent (the
      // composer is const and the memo cache is thread-safe first-wins).
      std::vector<policy::Classifier> slices(new_groups.size());
      {
        obs::TraceSpan span(&tracer_, "slice_compile");
        auto compile = [&](std::size_t g) {
          slices[g] = composer_.ComposeForGroup(
              participants_, inbound_policies_, new_groups[g],
              clause_set_ids_, &cache_,
              encoded_active_ ? VmacEncoding::kEncoded
                              : VmacEncoding::kLegacy,
              &roster_);
        };
        if (pool != nullptr && slices.size() > 1) {
          pool->ParallelFor(slices.size(), compile);
        } else {
          for (std::size_t g = 0; g < slices.size(); ++g) compile(g);
        }
      }

      {
        obs::TraceSpan span(&tracer_, "rule_install");
        // Each fast-path slice gets its own priority band above the
        // previous ones, so a re-updated prefix's newest rules shadow its
        // older ones. The stride bounds the slice size (clauses × inbound
        // rules per group). Installs run under the causing update's id so
        // flow-mod provenance survives batching.
        constexpr std::int32_t kFastPathBandStride = 4096;
        for (std::size_t g = 0; g < new_groups.size(); ++g) {
          obs::UpdateIdScope ambient(journal_.get(),
                                     cause_of.at(changed_order[g]));
          auto rules = slices[g].ToFlowRules(
              kFastPathPriorityBase +
                  static_cast<std::int32_t>(fast_groups_.size() + g) *
                      kFastPathBandStride,
              kFastPathCookie);
          std::size_t added = 0;
          for (auto& rule : rules) {
            if (rule.actions.empty() && rule.match.IsWildcard()) {
              continue;  // no drop
            }
            data_plane_.table().Install(rule);
            ++added;
          }
          rules_for[changed_order[g]] = added;
          stats.rules_added += added;
        }
      }

      {
        obs::TraceSpan span(&tracer_, "readvertise");
        // Re-advertise: each changed prefix now resolves to its fresh VNH
        // for all receivers that still have a route; receivers that lost
        // it drop the FIB entry. Routers are independent, so they fan out
        // one-per-worker.
        if (encoded_active_) {
          // The masked rules installed at the last full compile already
          // cover the new groups; the ARP answer (next-hop index + clause
          // bits per sender) is what actually re-routes traffic.
          const std::vector<AsNumber> policy_senders = PolicySenders();
          for (const AnnotatedGroup& group : new_groups) {
            arp_.BindEncoded(group.binding.vnh,
                             BuildEncodedArpEntry(group, policy_senders));
          }
        } else {
          for (const AnnotatedGroup& group : new_groups) {
            arp_.Bind(group.binding.vnh, group.binding.vmac);
          }
        }
        std::vector<std::pair<const AsNumber, BorderRouter>*> targets;
        targets.reserve(routers_.size());
        for (auto& entry : routers_) targets.push_back(&entry);
        auto readvertise = [&](std::size_t t) {
          auto& [as, router] = *targets[t];
          for (std::size_t g = 0; g < new_groups.size(); ++g) {
            const net::IPv4Prefix& prefix = changed_order[g];
            const bgp::BgpRoute* route =
                route_server_.BestRoute(as, prefix);
            if (route == nullptr) {
              router.RemoveRoute(prefix);
            } else if (new_groups[g].best_hop != 0) {
              router.InstallRoute(prefix, new_groups[g].binding.vnh);
            }
          }
        };
        if (pool != nullptr && targets.size() > 1) {
          pool->ParallelFor(targets.size(), readvertise);
        } else {
          for (std::size_t t = 0; t < targets.size(); ++t) readvertise(t);
        }
        for (std::size_t g = 0; g < new_groups.size(); ++g) {
          fast_group_of_[changed_order[g]] = fast_groups_.size();
          fast_groups_.push_back(std::move(new_groups[g]));
        }
      }
    }
  }

  stats.seconds = SecondsSince(start);
  stats.stages = tracer_.spans();
  // Convergence end stamp: taken on the journal's clock (the same clock
  // the ingest events carry) the moment the flush completed, before the
  // tail-end journaling/metrics below add their microseconds.
  const double convergence_end_seconds =
      journal_ != nullptr ? journal_->NowSeconds() : 0.0;
  last_flush_seconds_ = stats.seconds;
  for (const obs::SpanRecord& span : stats.stages) {
    if (span.name == std::string("rib_update")) {
      last_decision_seconds_ = span.seconds;
      break;
    }
  }
  const auto micros = static_cast<std::uint64_t>(stats.seconds * 1e6);

  // Per-update end events in drain order; a changed prefix's rules are
  // attributed to its causing update, every other update reports zero.
  std::size_t updates_changed = 0;
  for (const BatchOutcome& outcome : stats.outcomes) {
    if (outcome.best_route_changed) ++updates_changed;
    const std::size_t rules =
        outcome.best_route_changed &&
                cause_of.at(outcome.prefix) == outcome.cause_id
            ? rules_for[outcome.prefix]
            : 0;
    obs::JournalRecord(journal_.get(), obs::JournalEventType::kBgpUpdateEnd,
                       outcome.cause_id, rules,
                       outcome.best_route_changed ? 1 : 0, micros);
  }
  if (aggregate) {
    obs::JournalRecord(journal_.get(), obs::JournalEventType::kBatchEnd,
                       obs::kNoUpdateId, stats.prefixes_changed,
                       stats.rules_added, micros);
  }

  metrics_.GetCounter("bgp_update.count").Increment(stats.updates_applied);
  if (updates_changed > 0) {
    metrics_.GetCounter("bgp_update.best_route_changed")
        .Increment(updates_changed);
  }
  if (aggregate) {
    metrics_.GetCounter("batch.count").Increment();
    metrics_.GetHistogram("batch.depth")
        .Observe(static_cast<double>(raw_count));
    metrics_.GetCounter("batch.applied").Increment(stats.updates_applied);
    metrics_.GetCounter("batch.coalesced")
        .Increment(stats.updates_coalesced);
    if (!stats.compiled) {
      metrics_.GetCounter("batch.compile_skipped").Increment();
    }
  }
  if (convergence_ != nullptr) {
    obs::ConvergenceBatch cb;
    cb.end_seconds = convergence_end_seconds;
    cb.batch_seconds = stats.seconds;
    for (const obs::SpanRecord& span : stats.stages) {
      if (span.parent == obs::SpanRecord::kNoParent) continue;
      if (span.name == "rib_update") {
        cb.decision_seconds += span.seconds;
      } else if (span.name == "group_construction" ||
                 span.name == "slice_compile") {
        cb.compile_seconds += span.seconds;
      } else if (span.name == "rule_install" || span.name == "readvertise") {
        cb.flush_seconds += span.seconds;
      }
    }
    cb.applied.reserve(slots.size());
    for (const bgp::CoalescedUpdate& slot : slots) {
      cb.applied.emplace_back(
          bgp::UpdateProvenance(slot.update),
          static_cast<std::uint32_t>(bgp::UpdateFrom(slot.update)));
      for (const std::uint64_t loser : slot.superseded) {
        cb.coalesced.push_back(loser);
      }
    }
    convergence_->RecordBatch(cb);
  }

  RecordTrace(metric_prefix, stats.seconds);
  return stats;
}

std::map<AsNumber, ParticipantTraffic> SdxRuntime::TrafficByParticipant()
    const {
  std::map<AsNumber, ParticipantTraffic> out;
  for (const PhysicalPort& port : topology_.AllPhysicalPorts()) {
    const dataplane::PortStats& stats = data_plane_.StatsFor(port.id);
    ParticipantTraffic& traffic = out[port.owner];
    traffic.sent_packets += stats.rx_packets;  // fabric-rx = participant-tx
    traffic.sent_bytes += stats.rx_bytes;
    traffic.received_packets += stats.tx_packets;
    traffic.received_bytes += stats.tx_bytes;
  }
  return out;
}

std::optional<net::IPv4Address> SdxRuntime::AdvertisedNextHop(
    AsNumber receiver, const net::IPv4Prefix& prefix) const {
  const bgp::BgpRoute* best = route_server_.BestRoute(receiver, prefix);
  if (best == nullptr) return std::nullopt;
  auto fast = fast_group_of_.find(prefix);
  if (fast != fast_group_of_.end()) {
    return fast_groups_[fast->second].binding.vnh;
  }
  const AnnotatedGroup* group = groups_.FindByPrefix(prefix);
  if (group != nullptr) return group->binding.vnh;
  return RouterIp(best->peer_as);
}

std::vector<dataplane::Emission> SdxRuntime::InjectFromParticipant(
    AsNumber as, net::Packet packet) {
  auto it = routers_.find(as);
  if (it == routers_.end()) {
    // Traffic sourced outside the participant registry (or from a remote
    // participant with no physical router) violates isolation.
    ingress_drops_.Record(obs::DropReason::kIsolationViolation);
    return {};
  }
  obs::DropReason reason = obs::DropReason::kNoFibRoute;
  auto tagged = it->second.EmitPacket(std::move(packet), arp_, &reason);
  if (!tagged) {
    ingress_drops_.Record(reason);
    return {};
  }
  return data_plane_.Process(*tagged);
}

std::vector<dataplane::Emission> SdxRuntime::InjectFromParticipantBatch(
    AsNumber as, std::span<const net::Packet> packets) {
  auto it = routers_.find(as);
  if (it == routers_.end()) {
    for (std::size_t i = 0; i < packets.size(); ++i) {
      ingress_drops_.Record(obs::DropReason::kIsolationViolation);
    }
    return {};
  }
  // Border-router stage per packet, then one fabric pass for the burst.
  std::vector<net::Packet> tagged;
  tagged.reserve(packets.size());
  for (const net::Packet& packet : packets) {
    obs::DropReason reason = obs::DropReason::kNoFibRoute;
    auto emitted = it->second.EmitPacket(packet, arp_, &reason);
    if (!emitted) {
      ingress_drops_.Record(reason);
      continue;
    }
    tagged.push_back(std::move(*emitted));
  }
  return data_plane_.ProcessBatch(tagged);
}

std::vector<dataplane::Emission> SdxRuntime::ReinjectFromPort(
    net::PortId port, net::Packet packet) {
  if (!topology_.IsPhysical(port)) {
    // Middleboxes may only re-inject on real fabric attachments.
    ingress_drops_.Record(obs::DropReason::kIsolationViolation);
    return {};
  }
  packet.header.in_port = port;
  return data_plane_.Process(packet);
}

void SdxRuntime::RecordTrace(const char* prefix, double total_seconds) {
  const std::string base(prefix);
  metrics_.GetHistogram(base + ".seconds").Observe(total_seconds);
  for (const obs::SpanRecord& span : tracer_.spans()) {
    if (span.parent == obs::SpanRecord::kNoParent) continue;  // = total
    metrics_.GetHistogram(base + ".stage." + span.name + ".seconds")
        .Observe(span.seconds);
  }
}

obs::DropCounters SdxRuntime::DropCounts() const {
  obs::DropCounters total = ingress_drops_.Snapshot();
  total += data_plane_.drops();
  return total;
}

obs::HealthReport SdxRuntime::HealthSnapshot(
    const obs::HealthThresholds& thresholds) const {
  obs::HealthReport report;
  report.queue_depth = queue_.pending_updates();
  report.batch_lag_seconds =
      oldest_pending_since_ ? SecondsSince(*oldest_pending_since_) : 0.0;
  report.updates_processed = route_server_.updates_processed();
  report.last_decision_seconds = last_decision_seconds_;
  report.last_compile_seconds = last_compile_seconds_;
  report.last_flush_seconds = last_flush_seconds_;
  report.rib_prefixes = route_server_.AllPrefixes().size();
  report.flow_table_rules = data_plane_.table().size();
  report.participants = participants_.size();
  const obs::DropCounters drops = DropCounts();
  report.table_miss_drops = drops.count(obs::DropReason::kTableMiss);
  report.total_drops = drops.total();
  report.histogram_bounds_conflicts = metrics_.histogram_bounds_conflicts();
  report.flap_rates = obs::HealthMonitor::FlapRatesFromJournal(journal_.get());
  return obs::HealthMonitor(thresholds).Evaluate(std::move(report));
}

obs::HealthReport SdxRuntime::PublishHealth(
    const obs::HealthThresholds& thresholds) {
  obs::HealthReport report = HealthSnapshot(thresholds);
  metrics_.GetGauge("health.degraded").Set(report.degraded ? 1.0 : 0.0);
  metrics_.GetGauge("health.queue_depth")
      .Set(static_cast<double>(report.queue_depth));
  metrics_.GetGauge("health.batch_lag_seconds").Set(report.batch_lag_seconds);
  metrics_.GetGauge("health.flow_table_rules")
      .Set(static_cast<double>(report.flow_table_rules));
  metrics_.GetGauge("health.total_drops")
      .Set(static_cast<double>(report.total_drops));
  return report;
}

std::map<std::string, double> SdxRuntime::CollectTimeSeriesValues() const {
  std::map<std::string, double> values;

  // Registry metrics the dashboard cares about: batch/update counters,
  // published health gauges, and a fixed set of latency histograms.
  // Snapshot() is thread-safe; everything else here is sharded/atomic.
  const obs::MetricsSnapshot snap = metrics_.Snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("batch.", 0) == 0 || name.rfind("bgp_update.", 0) == 0 ||
        name.rfind("decision.", 0) == 0) {
      values[name] = static_cast<double>(value);
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind("health.", 0) == 0) {
      values[name] = value;
    }
  }
  // Live per-slot decision tally: incremented by the control thread
  // mid-batch (obs/sharded.h relaxed atomics), so the sampler sees progress
  // while a batch is in flight, not only after it ends.
  values["decision.updates"] =
      static_cast<double>(decision_updates_.value());
  for (const char* name :
       {"batch.depth", "batch.seconds", "bgp_update.seconds",
        "compile.seconds"}) {
    const auto it = snap.histograms.find(name);
    if (it == snap.histograms.end()) continue;
    const std::string base(name);
    values[base + ".count"] = static_cast<double>(it->second.count);
    values[base + ".p50"] = it->second.p50;
    values[base + ".p95"] = it->second.p95;
    values[base + ".p99"] = it->second.p99;
  }

  const obs::DropCounters drops = DropCounts();
  values["drop.total"] = static_cast<double>(drops.total());
  for (obs::DropReason reason : obs::kAllDropReasons) {
    values[std::string("drop.") + obs::DropReasonName(reason)] =
        static_cast<double>(drops.count(reason));
  }

  if (convergence_ != nullptr) convergence_->AppendSeries(&values);
  return values;
}

obs::MetricsSnapshot SdxRuntime::SnapshotMetrics() {
  // Drop accounting, one counter per reason.
  const obs::DropCounters drops = DropCounts();
  for (obs::DropReason reason : obs::kAllDropReasons) {
    metrics_
        .GetCounter(std::string("drop.") + obs::DropReasonName(reason))
        .Set(drops.count(reason));
  }

  // Data plane.
  const dataplane::FlowTable& table = data_plane_.table();
  metrics_.GetGauge("dataplane.flow_table.rules")
      .Set(static_cast<double>(table.size()));
  metrics_.GetCounter("dataplane.flow_table.hits").Set(table.hit_count());
  metrics_.GetCounter("dataplane.flow_table.misses").Set(table.miss_count());

  // Sampled flow telemetry (when enabled).
  if (flow_recorder_ != nullptr) {
    metrics_.GetCounter("telemetry.packets_seen")
        .Set(flow_recorder_->packets_seen());
    metrics_.GetCounter("telemetry.packets_sampled")
        .Set(flow_recorder_->packets_sampled());
    metrics_.GetCounter("telemetry.flows_exported")
        .Set(flow_recorder_->flows_exported());
    metrics_.GetCounter("telemetry.cache_evictions")
        .Set(flow_recorder_->cache_evictions());
    metrics_.GetGauge("telemetry.live_flows")
        .Set(static_cast<double>(flow_recorder_->live_flows()));
  }

  // Compilation state + memoization cache.
  metrics_.GetGauge("compile.prefix_groups")
      .Set(static_cast<double>(groups_.groups.size()));
  metrics_.GetGauge("compile.fast_path_groups")
      .Set(static_cast<double>(fast_groups_.size()));
  metrics_.GetGauge("compile.vnh_allocated")
      .Set(static_cast<double>(vnh_.allocated_count()));
  metrics_.GetCounter("cache.hits").Set(cache_.hits());
  metrics_.GetCounter("cache.misses").Set(cache_.misses());
  metrics_.GetCounter("cache.evictions").Set(cache_.evictions());
  metrics_.GetGauge("cache.entries").Set(static_cast<double>(cache_.size()));
  metrics_.GetGauge("cache.rules")
      .Set(static_cast<double>(cache_.TotalRules()));

  // Decision pass: sync the live sharded tally into the registry.
  metrics_.GetCounter("decision.updates").Set(decision_updates_.value());

  // Route server, global and per participant.
  metrics_.GetCounter("rs.updates_processed")
      .Set(route_server_.updates_processed());
  metrics_.GetCounter("rs.export_suppressions")
      .Set(route_server_.export_suppressions());
  for (const auto& [as, participant] : participants_) {
    const rs::ParticipantCounters* counters = route_server_.CountersFor(as);
    if (counters == nullptr) continue;
    const std::string base = "rs.as" + std::to_string(as) + ".";
    metrics_.GetCounter(base + "announcements").Set(counters->announcements);
    metrics_.GetCounter(base + "withdrawals").Set(counters->withdrawals);
    metrics_.GetCounter(base + "best_route_changes")
        .Set(counters->best_route_changes);
  }

  // Traffic totals per participant, from the port counters.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& [as, traffic] : TrafficByParticipant()) {
    const std::string base = "traffic.as" + std::to_string(as) + ".";
    metrics_.GetCounter(base + "sent_packets").Set(traffic.sent_packets);
    metrics_.GetCounter(base + "received_packets")
        .Set(traffic.received_packets);
    sent += traffic.sent_packets;
    received += traffic.received_packets;
  }
  metrics_.GetCounter("traffic.sent_packets").Set(sent);
  metrics_.GetCounter("traffic.received_packets").Set(received);

  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  // The convergence histograms live in sharded cells, not the registry
  // (registry histograms cannot be bulk-merged); splice their views in so
  // exports and `sdxmon diff` treat them like any other metric.
  if (convergence_ != nullptr) convergence_->FillMetrics(&snapshot);
  return snapshot;
}

const Participant* SdxRuntime::FindParticipant(AsNumber as) const {
  auto it = participants_.find(as);
  return it == participants_.end() ? nullptr : &it->second;
}

const BorderRouter* SdxRuntime::FindRouter(AsNumber as) const {
  auto it = routers_.find(as);
  return it == routers_.end() ? nullptr : &it->second;
}

}  // namespace sdx::core
