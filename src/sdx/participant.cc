#include "sdx/participant.h"

#include <sstream>

namespace sdx::core {

std::string OutboundClause::ToString() const {
  std::ostringstream os;
  os << match.ToString();
  if (!dst_prefixes.empty()) {
    os << " && dst in {";
    for (std::size_t i = 0; i < dst_prefixes.size(); ++i) {
      if (i > 0) os << ", ";
      os << dst_prefixes[i];
    }
    os << "}";
  }
  os << " >> fwd(AS" << to << ")";
  return os.str();
}

std::string InboundClause::ToString() const {
  std::ostringstream os;
  os << match.ToString();
  for (const ChainHop& hop : chain) {
    os << " >> middlebox(AS" << hop.via << " port " << hop.port_index << ")";
  }
  if (!rewrites.empty()) os << " >> mod" << rewrites.ToString();
  os << " >> fwd(port " << port_index;
  if (via_participant) os << " of AS" << *via_participant;
  os << ")";
  return os.str();
}

std::optional<net::IPv4Address> BorderRouter::NextHopFor(
    net::IPv4Address dst) const {
  return shared_fib_->Lookup(fib_index_, dst);
}

std::optional<net::Packet> BorderRouter::EmitPacket(
    net::Packet packet, const dataplane::ArpResponder& arp,
    obs::DropReason* drop_reason) const {
  auto next_hop = NextHopFor(packet.header.dst_ip);
  if (!next_hop) {  // no route: router drops
    if (drop_reason != nullptr) *drop_reason = obs::DropReason::kNoFibRoute;
    return std::nullopt;
  }
  auto mac = arp.Resolve(*next_hop);
  if (!mac) {  // unresolvable next hop
    if (drop_reason != nullptr) *drop_reason = obs::DropReason::kArpUnresolved;
    return std::nullopt;
  }
  packet.header.dst_mac = *mac;
  packet.header.src_mac = port_mac_;
  packet.header.in_port = attach_port_;
  return packet;
}

}  // namespace sdx::core
