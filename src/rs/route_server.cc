#include "rs/route_server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sdx::rs {

void RouteServer::RegisterParticipant(AsNumber as,
                                      net::IPv4Address router_id) {
  participants_[as].router_id = router_id;
  ++config_version_;
}

bool RouteServer::IsRegistered(AsNumber as) const {
  return participants_.contains(as);
}

std::vector<AsNumber> RouteServer::Participants() const {
  std::vector<AsNumber> out;
  out.reserve(participants_.size());
  for (const auto& [as, state] : participants_) out.push_back(as);
  return out;
}

void RouteServer::DenyExport(AsNumber announcer, AsNumber receiver,
                             const net::IPv4Prefix& prefix) {
  export_denies_.insert({announcer, receiver, prefix});
  ++config_version_;
  // The receiver's view of this prefix may have changed.
  if (auto change = RecomputeBest(receiver, prefix); change && on_change_) {
    on_change_(*change);
  }
}

void RouteServer::AllowExport(AsNumber announcer, AsNumber receiver,
                              const net::IPv4Prefix& prefix) {
  export_denies_.erase({announcer, receiver, prefix});
  ++config_version_;
  if (auto change = RecomputeBest(receiver, prefix); change && on_change_) {
    on_change_(*change);
  }
}

bool RouteServer::ExportAllowed(AsNumber announcer, AsNumber receiver,
                                const net::IPv4Prefix& prefix) const {
  if (announcer == receiver) return false;  // never reflect back
  if (export_denies_.contains({announcer, receiver, prefix})) return false;
  // Control communities carried on the route itself.
  auto it = participants_.find(announcer);
  if (it != participants_.end()) {
    const bgp::BgpRoute* route = it->second.adj_rib_in.Find(prefix);
    if (route != nullptr && !route->communities.empty() &&
        !bgp::CommunitiesPermitExport(route->communities, receiver, rs_as_)) {
      return false;
    }
  }
  return true;
}

void RouteServer::RegisterOwnership(AsNumber as,
                                    const net::IPv4Prefix& prefix) {
  ownership_.insert({as, prefix});
}

bool RouteServer::OwnershipVerified(AsNumber as,
                                    const net::IPv4Prefix& prefix) const {
  return ownership_.contains({as, prefix});
}

bool RouteServer::Announce(AsNumber as, const net::IPv4Prefix& prefix,
                           net::IPv4Address next_hop) {
  if (!OwnershipVerified(as, prefix)) return false;
  bgp::BgpRoute route;
  route.prefix = prefix;
  route.next_hop = next_hop;
  route.as_path = {as};
  route.peer_as = as;
  auto it = participants_.find(as);
  if (it != participants_.end()) route.peer_router_id = it->second.router_id;
  bgp::Announcement announcement{.from_as = as, .route = route, .time = 0};
  HandleUpdate(bgp::BgpUpdate{announcement});
  return true;
}

bool RouteServer::WithdrawOrigination(AsNumber as,
                                      const net::IPv4Prefix& prefix) {
  if (!OwnershipVerified(as, prefix)) return false;
  bgp::Withdrawal withdrawal{.from_as = as, .prefix = prefix, .time = 0};
  HandleUpdate(bgp::BgpUpdate{withdrawal});
  return true;
}

std::vector<BestRouteChange> RouteServer::HandleUpdate(
    const bgp::BgpUpdate& update) {
  ++updates_processed_;
  const AsNumber from = bgp::UpdateFrom(update);
  const net::IPv4Prefix prefix = bgp::UpdatePrefix(update);

  auto it = participants_.find(from);
  if (it == participants_.end()) {
    throw std::invalid_argument("update from unregistered participant AS" +
                                std::to_string(from));
  }
  ParticipantState& announcer = it->second;

  bool changed = false;
  if (const auto* a = std::get_if<bgp::Announcement>(&update)) {
    ++announcer.counters.announcements;
    bgp::BgpRoute route = a->route;
    route.peer_as = from;
    route.peer_router_id = announcer.router_id;
    changed = announcer.adj_rib_in.Announce(route);
    announcers_[prefix].insert(from);
  } else {
    ++announcer.counters.withdrawals;
    changed = announcer.adj_rib_in.Withdraw(prefix).has_value();
    auto ann = announcers_.find(prefix);
    if (ann != announcers_.end()) {
      ann->second.erase(from);
      if (ann->second.empty()) announcers_.erase(ann);
    }
  }

  std::vector<BestRouteChange> changes;
  if (!changed || bulk_loading_) return changes;

  const obs::UpdateId provenance =
      sinks_.journal != nullptr && bgp::UpdateProvenance(update) == obs::kNoUpdateId
          ? sinks_.journal->current_update_id()
          : bgp::UpdateProvenance(update);
  // Scope the ambient id so suppression events inside RecomputeBest inherit
  // this update's provenance too.
  obs::UpdateIdScope ambient(sinks_.journal, provenance);
  for (auto& [receiver, state] : participants_) {
    if (receiver == from) continue;
    if (auto change = RecomputeBest(receiver, prefix)) {
      if (sinks_.journal != nullptr) {
        sinks_.journal->Record(
            obs::JournalEventType::kRsDecision, provenance, receiver,
            change->new_best ? change->new_best->peer_as : 0,
            change->old_best ? change->old_best->peer_as : 0,
            prefix.ToString());
      }
      changes.push_back(*change);
      if (on_change_) on_change_(*change);
    }
  }
  return changes;
}

void RouteServer::BeginBulkLoad() { bulk_loading_ = true; }

void RouteServer::EndBulkLoad() {
  bulk_loading_ = false;
  // One pass per prefix: sort the candidate routes by preference once, then
  // hand each receiver the first candidate it may use. Equivalent to (but
  // much cheaper than) running RecomputeBest per announcement.
  for (const auto& [prefix, who] : announcers_) {
    std::vector<const bgp::BgpRoute*> candidates;
    candidates.reserve(who.size());
    for (AsNumber announcer_as : who) {
      const bgp::BgpRoute* route =
          participants_.at(announcer_as).adj_rib_in.Find(prefix);
      if (route != nullptr) candidates.push_back(route);
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const bgp::BgpRoute* a, const bgp::BgpRoute* b) {
                return bgp::CompareRoutes(*a, *b) < 0;
              });
    for (auto& [receiver, state] : participants_) {
      for (const bgp::BgpRoute* candidate : candidates) {
        if (candidate->peer_as == receiver) continue;
        if (!ExportAllowed(candidate->peer_as, receiver, prefix)) {
          ++export_suppressions_;
          continue;
        }
        if (candidate->PathContains(receiver)) continue;
        state.loc_rib.Set(*candidate);
        break;
      }
    }
  }
}

void RouteServer::OnBestRouteChange(
    std::function<void(const BestRouteChange&)> callback) {
  on_change_ = std::move(callback);
}

std::optional<BestRouteChange> RouteServer::RecomputeBest(
    AsNumber receiver, const net::IPv4Prefix& prefix) {
  auto it = participants_.find(receiver);
  if (it == participants_.end()) return std::nullopt;
  ParticipantState& state = it->second;

  // Candidate routes: every announcer's route for this prefix that the
  // export policy lets `receiver` see and that does not loop through it.
  const bgp::BgpRoute* best = nullptr;
  auto ann = announcers_.find(prefix);
  if (ann != announcers_.end()) {
    for (AsNumber announcer_as : ann->second) {
      if (!ExportAllowed(announcer_as, receiver, prefix)) {
        // Self-announcements are never "exported", so a receiver skipping
        // its own route is not a policy suppression.
        if (announcer_as != receiver) {
          ++export_suppressions_;
          if (sinks_.journal != nullptr) {
            sinks_.journal->Record(obs::JournalEventType::kRsExportSuppressed,
                             sinks_.journal->current_update_id(), receiver,
                             announcer_as, 0, prefix.ToString());
          }
        }
        continue;
      }
      const auto& announcer_state = participants_.at(announcer_as);
      const bgp::BgpRoute* route = announcer_state.adj_rib_in.Find(prefix);
      if (route == nullptr || route->PathContains(receiver)) continue;
      if (best == nullptr || bgp::CompareRoutes(*route, *best) < 0) {
        best = route;
      }
    }
  }

  const bgp::BgpRoute* old_entry = state.loc_rib.Find(prefix);
  std::optional<bgp::BgpRoute> old_best =
      old_entry ? std::optional<bgp::BgpRoute>(*old_entry) : std::nullopt;

  if (best == nullptr) {
    if (!old_best) return std::nullopt;
    state.loc_rib.Remove(prefix);
    ++state.counters.best_route_changes;
    return BestRouteChange{receiver, prefix, old_best, std::nullopt};
  }
  if (old_best && *old_best == *best) return std::nullopt;
  state.loc_rib.Set(*best);
  ++state.counters.best_route_changes;
  return BestRouteChange{receiver, prefix, old_best, *best};
}

const ParticipantCounters* RouteServer::CountersFor(AsNumber as) const {
  auto it = participants_.find(as);
  return it == participants_.end() ? nullptr : &it->second.counters;
}

const bgp::BgpRoute* RouteServer::BestRoute(
    AsNumber receiver, const net::IPv4Prefix& prefix) const {
  auto it = participants_.find(receiver);
  if (it == participants_.end()) return nullptr;
  return it->second.loc_rib.Find(prefix);
}

const bgp::BgpRoute* RouteServer::GlobalBest(
    const net::IPv4Prefix& prefix) const {
  auto ann = announcers_.find(prefix);
  if (ann == announcers_.end()) return nullptr;
  const bgp::BgpRoute* best = nullptr;
  for (AsNumber announcer_as : ann->second) {
    const bgp::BgpRoute* route =
        participants_.at(announcer_as).adj_rib_in.Find(prefix);
    if (route == nullptr) continue;
    if (best == nullptr || bgp::CompareRoutes(*route, *best) < 0) best = route;
  }
  return best;
}

const bgp::LocRib* RouteServer::LocRibFor(AsNumber receiver) const {
  auto it = participants_.find(receiver);
  if (it == participants_.end()) return nullptr;
  return &it->second.loc_rib;
}

std::vector<AsNumber> RouteServer::ReachableVia(
    AsNumber receiver, const net::IPv4Prefix& prefix) const {
  std::vector<AsNumber> out;
  auto ann = announcers_.find(prefix);
  if (ann == announcers_.end()) return out;
  for (AsNumber announcer_as : ann->second) {
    if (!ExportAllowed(announcer_as, receiver, prefix)) continue;
    const auto* route = participants_.at(announcer_as).adj_rib_in.Find(prefix);
    if (route == nullptr || route->PathContains(receiver)) continue;
    out.push_back(announcer_as);
  }
  return out;
}

bool RouteServer::ExportsTo(AsNumber announcer, AsNumber receiver,
                            const net::IPv4Prefix& prefix) const {
  if (!ExportAllowed(announcer, receiver, prefix)) return false;
  auto it = participants_.find(announcer);
  if (it == participants_.end()) return false;
  const bgp::BgpRoute* route = it->second.adj_rib_in.Find(prefix);
  return route != nullptr && !route->PathContains(receiver);
}

std::vector<net::IPv4Prefix> RouteServer::PrefixesReachableVia(
    AsNumber receiver, AsNumber next_hop_as) const {
  std::vector<net::IPv4Prefix> out;
  auto it = participants_.find(next_hop_as);
  if (it == participants_.end()) return out;
  it->second.adj_rib_in.ForEach([&](const bgp::BgpRoute& route) {
    if (!ExportAllowed(next_hop_as, receiver, route.prefix)) return;
    if (route.PathContains(receiver)) return;
    out.push_back(route.prefix);
  });
  return out;
}

std::vector<net::IPv4Prefix> RouteServer::AllPrefixes() const {
  std::vector<net::IPv4Prefix> out;
  out.reserve(announcers_.size());
  for (const auto& [prefix, who] : announcers_) out.push_back(prefix);
  return out;
}

std::vector<net::IPv4Prefix> RouteServer::PrefixesAnnouncedBy(
    AsNumber as) const {
  std::vector<net::IPv4Prefix> out;
  auto it = participants_.find(as);
  if (it == participants_.end()) return out;
  it->second.adj_rib_in.ForEach(
      [&](const bgp::BgpRoute& route) { out.push_back(route.prefix); });
  return out;
}

const std::set<AsNumber>* RouteServer::AnnouncersOf(
    const net::IPv4Prefix& prefix) const {
  auto it = announcers_.find(prefix);
  if (it == announcers_.end()) return nullptr;
  return &it->second;
}

}  // namespace sdx::rs
