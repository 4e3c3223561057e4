#include "bgp/rib.h"

namespace sdx::bgp {

bool AdjRibIn::Announce(const BgpRoute& route) {
  auto [it, inserted] = routes_.try_emplace(route.prefix, route);
  if (inserted) return true;
  if (it->second == route) return false;
  it->second = route;
  return true;
}

std::optional<BgpRoute> AdjRibIn::Withdraw(const net::IPv4Prefix& prefix) {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return std::nullopt;
  BgpRoute removed = std::move(it->second);
  routes_.erase(it);
  return removed;
}

const BgpRoute* AdjRibIn::Find(const net::IPv4Prefix& prefix) const {
  auto it = routes_.find(prefix);
  return it == routes_.end() ? nullptr : &it->second;
}

void AdjRibIn::ForEach(const std::function<void(const BgpRoute&)>& fn) const {
  for (const auto& [prefix, route] : routes_) fn(route);
}

bool LocRib::Set(const BgpRoute& route) {
  auto [it, inserted] = routes_.try_emplace(route.prefix, route);
  if (inserted) return true;
  if (it->second == route) return false;
  it->second = route;
  return true;
}

std::optional<BgpRoute> LocRib::Remove(const net::IPv4Prefix& prefix) {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return std::nullopt;
  BgpRoute removed = std::move(it->second);
  routes_.erase(it);
  return removed;
}

const BgpRoute* LocRib::Find(const net::IPv4Prefix& prefix) const {
  auto it = routes_.find(prefix);
  return it == routes_.end() ? nullptr : &it->second;
}

std::vector<BgpRoute> LocRib::FilterByAsPath(
    const AsPathPattern& pattern) const {
  std::vector<BgpRoute> out;
  for (const auto& [prefix, route] : routes_) {
    if (pattern.Matches(route.as_path)) out.push_back(route);
  }
  return out;
}

void LocRib::ForEach(const std::function<void(const BgpRoute&)>& fn) const {
  for (const auto& [prefix, route] : routes_) fn(route);
}

}  // namespace sdx::bgp
