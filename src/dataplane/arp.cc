#include "dataplane/arp.h"

namespace sdx::dataplane {

void ArpResponder::Bind(net::IPv4Address ip, net::MacAddress mac) {
  bindings_[ip] = mac;
}

bool ArpResponder::Unbind(net::IPv4Address ip) {
  return bindings_.erase(ip) > 0;
}

std::optional<net::MacAddress> ArpResponder::Resolve(
    net::IPv4Address ip) const {
  ++query_count_;
  if (auto it = bindings_.find(ip); it != bindings_.end()) {
    ++hit_count_;
    return it->second;
  }
  return std::nullopt;
}

}  // namespace sdx::dataplane
