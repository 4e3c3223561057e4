// Routing Information Bases maintained by the SDX route server.
//
//   * AdjRibIn  — one per peer: everything that peer announced.
//   * LocRib    — one per participant: the best route per prefix *for that
//                 participant* (each participant can have a different best
//                 route because announcer export policies differ).
//
// Both support exact lookup, enumeration, and the reachability queries the
// policy compiler's BGP-consistency transformation needs.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/route.h"
#include "net/ipv4.h"

namespace sdx::bgp {

// Routes announced by a single peer, keyed by prefix.
class AdjRibIn {
 public:
  // Returns true if this replaced an existing route with different content
  // or inserted a new one (i.e. the RIB changed).
  bool Announce(const BgpRoute& route);

  // Returns the removed route, if any.
  std::optional<BgpRoute> Withdraw(const net::IPv4Prefix& prefix);

  const BgpRoute* Find(const net::IPv4Prefix& prefix) const;

  void ForEach(const std::function<void(const BgpRoute&)>& fn) const;

  std::size_t size() const { return routes_.size(); }

 private:
  std::unordered_map<net::IPv4Prefix, BgpRoute> routes_;
};

// Best route per prefix for one participant.
class LocRib {
 public:
  // Sets the best route; returns true when the entry changed.
  bool Set(const BgpRoute& route);

  // Removes the best route; returns the removed entry.
  std::optional<BgpRoute> Remove(const net::IPv4Prefix& prefix);

  const BgpRoute* Find(const net::IPv4Prefix& prefix) const;

  // All routes whose AS path matches `pattern` — the paper's
  // RIB.filter('as_path', regex) used for attribute-based policy matching.
  std::vector<BgpRoute> FilterByAsPath(const AsPathPattern& pattern) const;

  void ForEach(const std::function<void(const BgpRoute&)>& fn) const;

  std::size_t size() const { return routes_.size(); }

 private:
  std::unordered_map<net::IPv4Prefix, BgpRoute> routes_;
};

}  // namespace sdx::bgp
