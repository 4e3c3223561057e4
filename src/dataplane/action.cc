#include "dataplane/action.h"

#include <ostream>
#include <sstream>

namespace sdx::dataplane {
namespace {

template <typename T>
void Compose(std::optional<T>& mine, const std::optional<T>& next) {
  if (next) mine = next;
}

}  // namespace

Rewrites& Rewrites::SetSrcMac(net::MacAddress mac) {
  src_mac_ = mac;
  return *this;
}
Rewrites& Rewrites::SetDstMac(net::MacAddress mac) {
  dst_mac_ = mac;
  return *this;
}
Rewrites& Rewrites::SetSrcIp(net::IPv4Address ip) {
  src_ip_ = ip;
  return *this;
}
Rewrites& Rewrites::SetDstIp(net::IPv4Address ip) {
  dst_ip_ = ip;
  return *this;
}
Rewrites& Rewrites::SetSrcPort(std::uint16_t port) {
  src_port_ = port;
  return *this;
}
Rewrites& Rewrites::SetDstPort(std::uint16_t port) {
  dst_port_ = port;
  return *this;
}

bool Rewrites::empty() const {
  return !src_mac_ && !dst_mac_ && !src_ip_ && !dst_ip_ && !src_port_ &&
         !dst_port_;
}

void Rewrites::ApplyTo(net::PacketHeader& header) const {
  if (src_mac_) header.src_mac = *src_mac_;
  if (dst_mac_) header.dst_mac = *dst_mac_;
  if (src_ip_) header.src_ip = *src_ip_;
  if (dst_ip_) header.dst_ip = *dst_ip_;
  if (src_port_) header.src_port = *src_port_;
  if (dst_port_) header.dst_port = *dst_port_;
}

Rewrites Rewrites::ThenApply(const Rewrites& next) const {
  Rewrites out = *this;
  Compose(out.src_mac_, next.src_mac_);
  Compose(out.dst_mac_, next.dst_mac_);
  Compose(out.src_ip_, next.src_ip_);
  Compose(out.dst_ip_, next.dst_ip_);
  Compose(out.src_port_, next.src_port_);
  Compose(out.dst_port_, next.dst_port_);
  return out;
}

std::optional<net::FieldMatch> Rewrites::PullBack(
    const net::FieldMatch& match) const {
  // For each field this rewrite assigns: a constraint on that field is
  // either guaranteed by the assignment (drop it from the pre-image) or
  // contradicted by it (no packet maps into the match).
  net::FieldMatch result = match;
  if (src_mac_ && match.src_mac()) {
    if (*match.src_mac() != *src_mac_) return std::nullopt;
    result.ClearField(net::Field::kSrcMac);
  }
  if (dst_mac_ && match.dst_mac()) {
    if (*match.dst_mac() != *dst_mac_) return std::nullopt;
    result.ClearField(net::Field::kDstMac);
  }
  if (src_ip_ && match.src_ip()) {
    if (!match.src_ip()->Contains(*src_ip_)) return std::nullopt;
    result.ClearField(net::Field::kSrcIp);
  }
  if (dst_ip_ && match.dst_ip()) {
    if (!match.dst_ip()->Contains(*dst_ip_)) return std::nullopt;
    result.ClearField(net::Field::kDstIp);
  }
  if (src_port_ && match.src_port()) {
    if (*match.src_port() != *src_port_) return std::nullopt;
    result.ClearField(net::Field::kSrcPort);
  }
  if (dst_port_ && match.dst_port()) {
    if (*match.dst_port() != *dst_port_) return std::nullopt;
    result.ClearField(net::Field::kDstPort);
  }
  return result;
}

std::string Rewrites::ToString() const {
  if (empty()) return "{}";
  std::ostringstream os;
  os << "{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ", ";
    first = false;
  };
  if (src_mac_) {
    sep();
    os << "src_mac<-" << *src_mac_;
  }
  if (dst_mac_) {
    sep();
    os << "dst_mac<-" << *dst_mac_;
  }
  if (src_ip_) {
    sep();
    os << "src_ip<-" << *src_ip_;
  }
  if (dst_ip_) {
    sep();
    os << "dst_ip<-" << *dst_ip_;
  }
  if (src_port_) {
    sep();
    os << "src_port<-" << *src_port_;
  }
  if (dst_port_) {
    sep();
    os << "dst_port<-" << *dst_port_;
  }
  os << "}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Rewrites& rewrites) {
  return os << rewrites.ToString();
}

std::string Action::ToString() const {
  std::ostringstream os;
  if (!rewrites.empty()) os << rewrites << " ";
  os << "-> port " << out_port;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Action& action) {
  return os << action.ToString();
}

std::string ToString(const ActionList& actions) {
  if (actions.empty()) return "drop";
  std::string out;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) out += "; ";
    out += actions[i].ToString();
  }
  return out;
}

}  // namespace sdx::dataplane
