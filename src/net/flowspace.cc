#include "net/flowspace.h"

#include <ostream>
#include <sstream>

namespace sdx::net {
namespace {

// Intersection for exact-match fields: both present → must agree; one
// present → keep it; neither → unconstrained. Returns false on conflict.
template <typename T>
bool IntersectExact(const std::optional<T>& a, const std::optional<T>& b,
                    std::optional<T>& out) {
  if (a && b) {
    if (*a != *b) return false;
    out = a;
  } else {
    out = a ? a : b;
  }
  return true;
}

// Intersection for prefix fields: overlapping prefixes intersect to the
// longer one; non-overlapping prefixes conflict.
bool IntersectPrefix(const std::optional<IPv4Prefix>& a,
                     const std::optional<IPv4Prefix>& b,
                     std::optional<IPv4Prefix>& out) {
  if (a && b) {
    auto intersection = a->Intersect(*b);
    if (!intersection) return false;
    out = intersection;
  } else {
    out = a ? a : b;
  }
  return true;
}

// Subset test for exact fields: this ⊆ other unless other constrains a
// field this leaves open or they disagree.
template <typename T>
bool SubsetExact(const std::optional<T>& self, const std::optional<T>& other) {
  if (!other) return true;
  return self && *self == *other;
}

bool SubsetPrefix(const std::optional<IPv4Prefix>& self,
                  const std::optional<IPv4Prefix>& other) {
  if (!other) return true;
  return self && other->Contains(*self);
}

void HashCombine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2);
}

template <typename T>
void HashField(std::size_t& seed, const std::optional<T>& field) {
  if (field) {
    HashCombine(seed, std::hash<T>{}(*field));
  } else {
    HashCombine(seed, 0x517CC1B727220A95ull);
  }
}

}  // namespace

std::string_view FieldName(Field field) {
  switch (field) {
    case Field::kInPort:
      return "in_port";
    case Field::kSrcMac:
      return "src_mac";
    case Field::kDstMac:
      return "dst_mac";
    case Field::kSrcIp:
      return "src_ip";
    case Field::kDstIp:
      return "dst_ip";
    case Field::kProto:
      return "proto";
    case Field::kSrcPort:
      return "src_port";
    case Field::kDstPort:
      return "dst_port";
  }
  return "?";
}

FieldMatch FieldMatch::InPort(PortId port) {
  return FieldMatch().WithInPort(port);
}
FieldMatch FieldMatch::SrcMac(MacAddress mac) {
  return FieldMatch().WithSrcMac(mac);
}
FieldMatch FieldMatch::DstMac(MacAddress mac) {
  return FieldMatch().WithDstMac(mac);
}
FieldMatch FieldMatch::SrcIp(IPv4Prefix prefix) {
  return FieldMatch().WithSrcIp(prefix);
}
FieldMatch FieldMatch::DstIp(IPv4Prefix prefix) {
  return FieldMatch().WithDstIp(prefix);
}
FieldMatch FieldMatch::Proto(std::uint8_t proto) {
  return FieldMatch().WithProto(proto);
}
FieldMatch FieldMatch::SrcPort(std::uint16_t port) {
  return FieldMatch().WithSrcPort(port);
}
FieldMatch FieldMatch::DstPort(std::uint16_t port) {
  return FieldMatch().WithDstPort(port);
}

FieldMatch& FieldMatch::WithInPort(PortId port) {
  in_port_ = port;
  return *this;
}
FieldMatch& FieldMatch::WithSrcMac(MacAddress mac) {
  src_mac_ = mac;
  return *this;
}
FieldMatch& FieldMatch::WithDstMac(MacAddress mac) {
  dst_mac_ = mac;
  return *this;
}
FieldMatch& FieldMatch::WithSrcIp(IPv4Prefix prefix) {
  src_ip_ = prefix;
  return *this;
}
FieldMatch& FieldMatch::WithDstIp(IPv4Prefix prefix) {
  dst_ip_ = prefix;
  return *this;
}
FieldMatch& FieldMatch::WithProto(std::uint8_t proto) {
  proto_ = proto;
  return *this;
}
FieldMatch& FieldMatch::WithSrcPort(std::uint16_t port) {
  src_port_ = port;
  return *this;
}
FieldMatch& FieldMatch::WithDstPort(std::uint16_t port) {
  dst_port_ = port;
  return *this;
}

bool FieldMatch::IsWildcard() const {
  return !in_port_ && !src_mac_ && !dst_mac_ && !src_ip_ && !dst_ip_ &&
         !proto_ && !src_port_ && !dst_port_;
}

int FieldMatch::ConstrainedFieldCount() const {
  int count = 0;
  count += in_port_.has_value();
  count += src_mac_.has_value();
  count += dst_mac_.has_value();
  count += src_ip_.has_value();
  count += dst_ip_.has_value();
  count += proto_.has_value();
  count += src_port_.has_value();
  count += dst_port_.has_value();
  return count;
}

bool FieldMatch::Matches(const PacketHeader& header) const {
  if (in_port_ && *in_port_ != header.in_port) return false;
  if (src_mac_ && *src_mac_ != header.src_mac) return false;
  if (dst_mac_ && *dst_mac_ != header.dst_mac) return false;
  if (src_ip_ && !src_ip_->Contains(header.src_ip)) return false;
  if (dst_ip_ && !dst_ip_->Contains(header.dst_ip)) return false;
  if (proto_ && *proto_ != header.proto) return false;
  if (src_port_ && *src_port_ != header.src_port) return false;
  if (dst_port_ && *dst_port_ != header.dst_port) return false;
  return true;
}

std::optional<FieldMatch> FieldMatch::Intersect(const FieldMatch& other) const {
  FieldMatch out;
  if (!IntersectExact(in_port_, other.in_port_, out.in_port_))
    return std::nullopt;
  if (!IntersectExact(src_mac_, other.src_mac_, out.src_mac_))
    return std::nullopt;
  if (!IntersectExact(dst_mac_, other.dst_mac_, out.dst_mac_))
    return std::nullopt;
  if (!IntersectPrefix(src_ip_, other.src_ip_, out.src_ip_))
    return std::nullopt;
  if (!IntersectPrefix(dst_ip_, other.dst_ip_, out.dst_ip_))
    return std::nullopt;
  if (!IntersectExact(proto_, other.proto_, out.proto_)) return std::nullopt;
  if (!IntersectExact(src_port_, other.src_port_, out.src_port_))
    return std::nullopt;
  if (!IntersectExact(dst_port_, other.dst_port_, out.dst_port_))
    return std::nullopt;
  return out;
}

bool FieldMatch::IsSubsetOf(const FieldMatch& other) const {
  return SubsetExact(in_port_, other.in_port_) &&
         SubsetExact(src_mac_, other.src_mac_) &&
         SubsetExact(dst_mac_, other.dst_mac_) &&
         SubsetPrefix(src_ip_, other.src_ip_) &&
         SubsetPrefix(dst_ip_, other.dst_ip_) &&
         SubsetExact(proto_, other.proto_) &&
         SubsetExact(src_port_, other.src_port_) &&
         SubsetExact(dst_port_, other.dst_port_);
}

FieldMatch& FieldMatch::ClearField(Field field) {
  switch (field) {
    case Field::kInPort:
      in_port_.reset();
      break;
    case Field::kSrcMac:
      src_mac_.reset();
      break;
    case Field::kDstMac:
      dst_mac_.reset();
      break;
    case Field::kSrcIp:
      src_ip_.reset();
      break;
    case Field::kDstIp:
      dst_ip_.reset();
      break;
    case Field::kProto:
      proto_.reset();
      break;
    case Field::kSrcPort:
      src_port_.reset();
      break;
    case Field::kDstPort:
      dst_port_.reset();
      break;
  }
  return *this;
}

bool FieldMatch::Constrains(Field field) const {
  switch (field) {
    case Field::kInPort:
      return in_port_.has_value();
    case Field::kSrcMac:
      return src_mac_.has_value();
    case Field::kDstMac:
      return dst_mac_.has_value();
    case Field::kSrcIp:
      return src_ip_.has_value();
    case Field::kDstIp:
      return dst_ip_.has_value();
    case Field::kProto:
      return proto_.has_value();
    case Field::kSrcPort:
      return src_port_.has_value();
    case Field::kDstPort:
      return dst_port_.has_value();
  }
  return false;
}

std::string FieldMatch::ToString() const {
  if (IsWildcard()) return "*";
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ", ";
    first = false;
  };
  if (in_port_) {
    sep();
    os << "in_port=" << *in_port_;
  }
  if (src_mac_) {
    sep();
    os << "src_mac=" << *src_mac_;
  }
  if (dst_mac_) {
    sep();
    os << "dst_mac=" << *dst_mac_;
  }
  if (src_ip_) {
    sep();
    os << "src_ip=" << *src_ip_;
  }
  if (dst_ip_) {
    sep();
    os << "dst_ip=" << *dst_ip_;
  }
  if (proto_) {
    sep();
    os << "proto=" << static_cast<int>(*proto_);
  }
  if (src_port_) {
    sep();
    os << "src_port=" << *src_port_;
  }
  if (dst_port_) {
    sep();
    os << "dst_port=" << *dst_port_;
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const FieldMatch& match) {
  return os << match.ToString();
}

std::size_t HashValue(const FieldMatch& match) {
  std::size_t seed = 0;
  HashField(seed, match.in_port());
  HashField(seed, match.src_mac());
  HashField(seed, match.dst_mac());
  HashField(seed, match.src_ip());
  HashField(seed, match.dst_ip());
  HashField(seed, match.proto());
  HashField(seed, match.src_port());
  HashField(seed, match.dst_port());
  return seed;
}

MaskSignature MaskSignatureOf(const FieldMatch& match) {
  MaskSignature sig;
  if (match.in_port()) sig.fields |= FieldBit(Field::kInPort);
  if (match.src_mac()) sig.fields |= FieldBit(Field::kSrcMac);
  if (match.dst_mac()) sig.fields |= FieldBit(Field::kDstMac);
  if (match.src_ip()) {
    sig.fields |= FieldBit(Field::kSrcIp);
    sig.src_ip_bits = match.src_ip()->length();
  }
  if (match.dst_ip()) {
    sig.fields |= FieldBit(Field::kDstIp);
    sig.dst_ip_bits = match.dst_ip()->length();
  }
  if (match.proto()) sig.fields |= FieldBit(Field::kProto);
  if (match.src_port()) sig.fields |= FieldBit(Field::kSrcPort);
  if (match.dst_port()) sig.fields |= FieldBit(Field::kDstPort);
  return sig;
}

MaskedKey ProjectKey(const FieldMatch& match, const MaskSignature& sig) {
  // Unconstrained fields pack as zero, and the mask clears them anyway.
  PacketHeader values;
  values.in_port = match.in_port().value_or(0);
  values.src_mac = match.src_mac().value_or(MacAddress());
  values.dst_mac = match.dst_mac().value_or(MacAddress());
  values.src_ip = match.src_ip() ? match.src_ip()->network() : IPv4Address();
  values.dst_ip = match.dst_ip() ? match.dst_ip()->network() : IPv4Address();
  values.proto = match.proto().value_or(0);
  values.src_port = match.src_port().value_or(0);
  values.dst_port = match.dst_port().value_or(0);
  return ProjectKey(values, sig);
}

}  // namespace sdx::net
