// ARP responder owned by the SDX controller.
//
// §4.2 of the paper: the controller answers ARP queries for Virtual Next-Hop
// (VNH) IP addresses with the corresponding Virtual MAC (VMAC), which is how
// unmodified participant border routers end up tagging packets with the
// forwarding-equivalence-class identifier the fabric matches on. Each VNH
// has one VMAC, whoever asks.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/ipv4.h"
#include "net/mac.h"

namespace sdx::dataplane {

class ArpResponder {
 public:
  // Installs or replaces a binding.
  void Bind(net::IPv4Address ip, net::MacAddress mac);

  // Removes a binding; returns true if one existed.
  bool Unbind(net::IPv4Address ip);

  // Answers an ARP request; nullopt when the address is unknown (real
  // hosts' ARP is handled by normal flooding, not the responder).
  std::optional<net::MacAddress> Resolve(net::IPv4Address ip) const;

  // Answers an ARP request from a specific participant border router: the
  // same answer as Resolve(ip), since bindings do not depend on who asks.
  std::optional<net::MacAddress> Resolve(net::IPv4Address ip,
                                         std::uint32_t /*requester_as*/) const {
    return Resolve(ip);
  }

  std::size_t size() const { return bindings_.size(); }

  std::uint64_t query_count() const { return query_count_; }
  std::uint64_t hit_count() const { return hit_count_; }

 private:
  std::unordered_map<net::IPv4Address, net::MacAddress> bindings_;
  mutable std::uint64_t query_count_ = 0;
  mutable std::uint64_t hit_count_ = 0;
};

}  // namespace sdx::dataplane
