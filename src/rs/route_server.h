// The SDX route server (§3.2, §5.1).
//
// Collects BGP routes from every participant, runs the decision process on
// behalf of each participant (each may see a different candidate set due to
// announcer export policies), and surfaces:
//
//   * best-route-change events — the SDX runtime subscribes to drive
//     incremental recompilation and VNH re-advertisement;
//   * reachability queries — which prefixes a participant may legally send
//     through a given next-hop participant (feeds the BGP-consistency
//     policy transformation);
//   * route origination on behalf of remote participants (the wide-area
//     load-balancer announces an anycast prefix through the SDX after an
//     ownership check, modeled here as a registered-ownership table).
//
// Unlike a conventional route server, consumers may forward via *any*
// feasible exported route, not just the advertised best one.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/communities.h"
#include "bgp/decision.h"
#include "bgp/rib.h"
#include "bgp/route.h"
#include "bgp/update.h"
#include "net/ipv4.h"
#include "obs/journal.h"
#include "obs/sinks.h"

namespace sdx::rs {

using bgp::AsNumber;

// Per-participant update-processing counters (operator observability).
struct ParticipantCounters {
  std::uint64_t announcements = 0;      // announcements received from this AS
  std::uint64_t withdrawals = 0;        // withdrawals received from this AS
  std::uint64_t best_route_changes = 0;  // churn: Loc-RIB changes seen BY it
};

// Emitted whenever a participant's best route for a prefix changes.
struct BestRouteChange {
  AsNumber receiver = 0;
  net::IPv4Prefix prefix;
  std::optional<bgp::BgpRoute> old_best;
  std::optional<bgp::BgpRoute> new_best;  // nullopt = prefix unreachable now
};

class RouteServer {
 public:
  // `sinks` wires the observability backends (obs/sinks.h; null members →
  // no-op): HandleUpdate records one rs_decision event per best-route
  // change, and export-policy suppressions during best-route selection
  // record rs_export_suppressed — both tagged with the triggering update's
  // provenance id (falling back to the journal's ambient id). Bulk loading
  // records nothing.
  explicit RouteServer(const obs::Sinks& sinks = {}) : sinks_(sinks) {}

  // Registers a participant peering session. Router id breaks decision ties.
  void RegisterParticipant(AsNumber as, net::IPv4Address router_id);

  // Rewires every sink at once (the runtime calls this when the journal is
  // re-created).
  void SetSinks(const obs::Sinks& sinks) { sinks_ = sinks; }

  obs::Journal* journal() const { return sinks_.journal; }

  bool IsRegistered(AsNumber as) const;
  std::vector<AsNumber> Participants() const;

  // The route server's own AS number, used by the (rs-as, peer)
  // "announce only to" control community. 0 disables that form.
  void SetRouteServerAs(std::uint16_t as) {
    rs_as_ = as;
    ++config_version_;
  }
  std::uint16_t route_server_as() const { return rs_as_; }

  // --- Export policy ----------------------------------------------------
  // By default every route is exported to every other participant, subject
  // to (a) operator deny entries below and (b) the standard control
  // communities carried on the route itself (bgp/communities.h): NO_EXPORT,
  // (0, peer) = "not to peer", (rs-as, peer) = "only to listed peers".
  //
  // A deny entry suppresses routes for `prefix` announced by `announcer`
  // from being exported to `receiver` (Figure 1b: B does not export p4
  // to A).
  void DenyExport(AsNumber announcer, AsNumber receiver,
                  const net::IPv4Prefix& prefix);
  void AllowExport(AsNumber announcer, AsNumber receiver,
                   const net::IPv4Prefix& prefix);
  bool ExportAllowed(AsNumber announcer, AsNumber receiver,
                     const net::IPv4Prefix& prefix) const;

  // --- Route origination (remote participants, §3.2) --------------------
  // Records that `as` owns `prefix` (stand-in for an RPKI check).
  void RegisterOwnership(AsNumber as, const net::IPv4Prefix& prefix);
  bool OwnershipVerified(AsNumber as, const net::IPv4Prefix& prefix) const;

  // Originates a route for `prefix` from the SDX on behalf of `as`.
  // Fails (returns false) when ownership was not registered.
  bool Announce(AsNumber as, const net::IPv4Prefix& prefix,
                net::IPv4Address next_hop);
  bool WithdrawOrigination(AsNumber as, const net::IPv4Prefix& prefix);

  // --- Update processing -------------------------------------------------
  // Applies one BGP update from a participant. Returns how many receivers'
  // best route it changed; each change is delivered to the subscribed
  // callback.
  std::size_t HandleUpdate(const bgp::BgpUpdate& update);

  // Bulk RIB loading: between BeginBulkLoad and EndBulkLoad, HandleUpdate
  // only records routes (no per-receiver best-path recomputation and no
  // change events); EndBulkLoad computes every participant's Loc-RIB in one
  // pass. Use only for initial table loading into empty Loc-RIBs.
  void BeginBulkLoad();
  void EndBulkLoad();

  // Subscribes to best-route changes (single subscriber: the SDX runtime).
  void OnBestRouteChange(std::function<void(const BestRouteChange&)> callback);

  // --- Queries ------------------------------------------------------------
  // The best route the server advertises to `receiver` for `prefix`.
  const bgp::BgpRoute* BestRoute(AsNumber receiver,
                                 const net::IPv4Prefix& prefix) const;

  // The receiver-independent best route (decision process over every
  // announcer, ignoring export policy). This is "the default next-hop
  // selected by the route server" that pass 2 of the FEC computation groups
  // prefixes by (§4.2): in the common full-export case every receiver
  // shares it, which is what lets default forwarding rules be shared
  // across senders.
  const bgp::BgpRoute* GlobalBest(const net::IPv4Prefix& prefix) const;

  const bgp::LocRib* LocRibFor(AsNumber receiver) const;

  // Participants that exported a route for `prefix` usable by `receiver`.
  std::vector<AsNumber> ReachableVia(AsNumber receiver,
                                     const net::IPv4Prefix& prefix) const;

  // True when `announcer` announced `prefix` and that route is exported to
  // and usable by `receiver` (O(1); the point query behind ReachableVia).
  bool ExportsTo(AsNumber announcer, AsNumber receiver,
                 const net::IPv4Prefix& prefix) const;

  // All prefixes `receiver` may forward through `next_hop_as` — the inputs
  // to the BGP-consistency filters of §4.1.
  std::vector<net::IPv4Prefix> PrefixesReachableVia(
      AsNumber receiver, AsNumber next_hop_as) const;

  // Every prefix announced by anyone.
  std::vector<net::IPv4Prefix> AllPrefixes() const;

  // Prefixes announced by one participant.
  std::vector<net::IPv4Prefix> PrefixesAnnouncedBy(AsNumber as) const;

  std::uint64_t updates_processed() const { return updates_processed_; }

  // Bumped by every mutation that can change routing outcomes through a
  // path other than HandleUpdate (participant registration, export-policy
  // edits, rs-as changes). Together with updates_processed() this lets the
  // runtime's incremental compiler prove "no routing state changed behind
  // my back" — any unexplained delta forces a full recompilation.
  std::uint64_t config_version() const { return config_version_; }

  // Update/withdraw/churn counters for one participant; nullptr when
  // unregistered.
  const ParticipantCounters* CountersFor(AsNumber as) const;

  // Times an export policy (deny entry or control community) suppressed a
  // candidate route during best-route selection.
  std::uint64_t export_suppressions() const { return export_suppressions_; }

 private:
  struct ParticipantState {
    net::IPv4Address router_id;
    bgp::AdjRibIn adj_rib_in;  // routes announced *by* this participant
    bgp::LocRib loc_rib;       // best routes *for* this participant
    ParticipantCounters counters;
  };

  // Peer ASes of the old and new best route of one LocRib change; 0 = no
  // route.
  struct PeerChange {
    AsNumber new_peer = 0;
    AsNumber old_peer = 0;
  };

  // Recomputes the best route for (receiver, prefix); returns the peers of
  // the change if the LocRib entry changed, after reporting it to the
  // OnBestRouteChange callback. The BestRouteChange copies of both routes
  // are made only when a callback is set.
  std::optional<PeerChange> RecomputeBest(AsNumber receiver,
                                          ParticipantState& state,
                                          const net::IPv4Prefix& prefix);

  std::map<AsNumber, ParticipantState> participants_;
  std::set<std::tuple<AsNumber, AsNumber, net::IPv4Prefix>> export_denies_;
  std::set<std::pair<AsNumber, net::IPv4Prefix>> ownership_;
  // Which prefixes each participant announced (for reverse queries).
  std::unordered_map<net::IPv4Prefix, std::set<AsNumber>> announcers_;
  std::function<void(const BestRouteChange&)> on_change_;
  obs::Sinks sinks_;
  std::uint64_t updates_processed_ = 0;
  std::uint64_t config_version_ = 0;
  std::uint64_t export_suppressions_ = 0;
  bool bulk_loading_ = false;
  std::uint16_t rs_as_ = 64999;
};

}  // namespace sdx::rs
